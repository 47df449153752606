package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecorderDerivesSpansFromProgressStream(t *testing.T) {
	r := NewRecorder()
	// The average-analysis progress stream: repeated callbacks within a
	// stage advance counts; a stage change closes the previous span.
	r.Progress("simulate", 0, 3)
	r.Progress("stuck-at-tsets", 1, 3)
	r.Progress("bridge-tsets", 2, 3)
	r.Progress("universe", 3, 3)
	r.Progress("procedure1", 10, 100)
	r.Progress("procedure1", 100, 100)
	spans := r.Finish()

	want := []string{"simulate", "stuck-at-tsets", "bridge-tsets", "universe", "procedure1"}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, name := range want {
		if spans[i].Name != name {
			t.Errorf("span %d = %q, want %q", i, spans[i].Name, name)
		}
		if spans[i].Open {
			t.Errorf("span %q still open after Finish", spans[i].Name)
		}
		if spans[i].DurNs < 0 || spans[i].StartNs < 0 {
			t.Errorf("span %q has negative times: %+v", name, spans[i])
		}
		if i > 0 && spans[i].StartNs < spans[i-1].StartNs {
			t.Errorf("span %q starts before its predecessor", name)
		}
	}
	if last := spans[len(spans)-1]; last.Done != 100 || last.Total != 100 {
		t.Errorf("procedure1 counts = %d/%d, want 100/100", last.Done, last.Total)
	}
}

func TestRecorderBeginEndIdempotent(t *testing.T) {
	r := NewRecorder()
	end := r.Begin("universe")
	end()
	dur := r.Snapshot()[0].DurNs
	time.Sleep(2 * time.Millisecond)
	end() // second end must not extend the span
	if got := r.Snapshot()[0].DurNs; got != dur {
		t.Fatalf("second end() changed duration: %d → %d", dur, got)
	}
}

// TestRecorderClosesProgressSpanWithItsBracket pins both ends of the
// worst-case phase as exp.AnalyzeCircuit traces it: the bracket and the
// progress span opened inside it end at the same instant, so the progress
// span does not run on through the encode phase that follows until Finish.
func TestRecorderClosesProgressSpanWithItsBracket(t *testing.T) {
	r := NewRecorder()
	end := r.Begin("worstcase")
	r.Progress("worstcase", 0, 1)
	r.Progress("worstcase", 1, 1)
	end()
	endEncode := r.Begin("encode")
	time.Sleep(2 * time.Millisecond)
	endEncode()
	spans := r.Finish()

	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	br, pr, enc := spans[0], spans[1], spans[2]
	if pr.Name != "worstcase" || pr.Done != 1 || pr.Total != 1 {
		t.Fatalf("span 1 = %+v, want the worstcase progress span at 1/1", pr)
	}
	if pr.StartNs < br.StartNs {
		t.Errorf("progress span starts at %dns, before its bracket at %dns", pr.StartNs, br.StartNs)
	}
	brEnd := br.StartNs + br.DurNs
	if got := pr.StartNs + pr.DurNs; got != brEnd {
		t.Errorf("progress span ends at %dns, want its bracket's end %dns", got, brEnd)
	}
	if enc.StartNs < brEnd {
		t.Errorf("encode starts at %dns, inside the worstcase bracket ending at %dns", enc.StartNs, brEnd)
	}
}

// TestRecorderProgressSpanOutlivesInnerBracket checks that a progress span
// belongs to the innermost bracket open when it started: a bracket opened
// later inside it does not end it, and a span started outside every
// bracket stays open until the next stage or Finish.
func TestRecorderProgressSpanOutlivesInnerBracket(t *testing.T) {
	r := NewRecorder()
	r.Progress("free", 0, 1)
	r.Begin("other")()
	if s := r.Snapshot(); !s[0].Open {
		t.Fatal("progress span started outside every bracket was closed by one")
	}
	endOuter := r.Begin("outer")
	r.Progress("stage", 0, 1)
	r.Begin("inner")()
	if s := r.Snapshot(); !s[3].Open {
		t.Fatalf("progress span closed by a bracket opened after it: %+v", s)
	}
	endOuter()
	if s := r.Snapshot(); s[3].Open {
		t.Errorf("progress span still open after the bracket it started inside ended: %+v", s)
	}
}

func TestRecorderSnapshotMarksOpenSpans(t *testing.T) {
	r := NewRecorder()
	r.Begin("universe")
	r.Progress("simulate", 0, 3)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d spans, want 2", len(snap))
	}
	for _, s := range snap {
		if !s.Open {
			t.Errorf("span %q not marked open in snapshot", s.Name)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCum := []uint64{1, 2, 3, 4} // cumulative, last = +Inf = count
	for i, want := range wantCum {
		if s.Cumulative[i] != want {
			t.Errorf("cumulative[%d] = %d, want %d", i, s.Cumulative[i], want)
		}
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if s.Sum != 0.005+0.05+0.5+5 {
		t.Errorf("sum = %v", s.Sum)
	}
	// Boundary values land in their bucket (le is inclusive).
	h2 := NewHistogram([]float64{0.01, 0.1, 1})
	h2.Observe(0.1)
	if got := h2.Snapshot().Cumulative[1]; got != 1 {
		t.Errorf("observation at the bound missed its bucket: cumulative[1] = %d", got)
	}
}

func TestExpositionFormat(t *testing.T) {
	var b strings.Builder
	e := NewExposition(&b)
	e.Counter("x_total", "a counter", 7)
	e.Gauge("y", "a gauge", -3)
	h := NewHistogram([]float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	e.Histogram("z_seconds", "a histogram", h.Snapshot())
	v := NewHistogramVec([]float64{1})
	v.Observe("b", 0.5)
	v.Observe("a", 0.5)
	e.HistogramVec("w_seconds", "a labeled histogram", "stage", v)
	out := b.String()
	for _, want := range []string{
		"# HELP x_total a counter\n# TYPE x_total counter\nx_total 7\n",
		"# TYPE y gauge\ny -3\n",
		"# TYPE z_seconds histogram\n",
		`z_seconds_bucket{le="0.5"} 1`,
		`z_seconds_bucket{le="1"} 1`,
		`z_seconds_bucket{le="+Inf"} 2`,
		"z_seconds_sum 2.25\nz_seconds_count 2\n",
		`w_seconds_bucket{stage="a",le="1"} 1`,
		`w_seconds_sum{stage="a"} 0.5`,
		`w_seconds_count{stage="b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Labeled series render in sorted label order — stable across scrapes.
	if strings.Index(out, `stage="a"`) > strings.Index(out, `stage="b"`) {
		t.Error("labeled series not in sorted label order")
	}
}

func TestWriteSSEEvent(t *testing.T) {
	var b strings.Builder
	if err := WriteSSEEvent(&b, 7, "progress", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "id: 7\nevent: progress\ndata: {\"a\":1}\n\n" {
		t.Fatalf("frame = %q", got)
	}
	// Multi-line data splits into multiple data: lines; negative id omits
	// the id line.
	b.Reset()
	if err := WriteSSEEvent(&b, -1, "state", []byte("x\ny")); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "event: state\ndata: x\ndata: y\n\n" {
		t.Fatalf("frame = %q", got)
	}
}

func TestSSEHeaders(t *testing.T) {
	h := http.Header{}
	SSEHeaders(h)
	if got := h.Get("Content-Type"); got != SSEContentType {
		t.Errorf("Content-Type = %q", got)
	}
	if got := h.Get("Cache-Control"); got != "no-store" {
		t.Errorf("Cache-Control = %q", got)
	}
}

func TestAccessLogCapturesStatusAndPreservesFlusher(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	flushed := false
	h := AccessLogSampled(logf, 1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
			flushed = true
		}
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("body"))
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/abc/events", nil))
	if !flushed {
		t.Error("AccessLogSampled hid the Flusher — SSE would never stream through it")
	}
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1", len(lines))
	}
	for _, want := range []string{"method=GET", "path=/jobs/abc/events", "status=418", "bytes=4"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("log line missing %q: %s", want, lines[0])
		}
	}
}
