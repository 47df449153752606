// Package obs is the observability layer behind the serving pipeline:
// stage-level span tracing, fixed-bucket latency histograms and gauges
// with a Prometheus text exposition writer, Server-Sent-Event framing,
// and structured HTTP request logs (DESIGN.md §14).
//
// The package is deliberately dependency-free (standard library only)
// and — critically — lives OUTSIDE the detrand-scoped packages of the
// lint contract (DESIGN.md §13): every wall-clock read the serving path
// needs happens here, behind hooks, so the result-computing packages
// stay provably pure in (circuit, identity options, seed). Nothing in
// this package may ever influence result bytes; it only observes. That
// is the identity non-interference argument of §14: instrumentation
// hooks are all ndetect:nonidentity fields or interfaces whose
// implementations merely record, and the byte-identity tests pin that a
// traced run equals an untraced one.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one timed phase of a job: an explicitly bracketed driver phase
// (Recorder.Begin) or a progress-derived stage (Recorder.Progress).
// Times are nanoseconds relative to the owning trace's start, so spans
// serialize compactly and never expose absolute wall-clock values.
type Span struct {
	// Name identifies the phase: a driver phase like "canonicalize",
	// "universe" or "encode", or a progress stage like "simulate",
	// "stuck-at-tsets" or "procedure1".
	Name string `json:"name"`
	// StartNs is the span's start, in nanoseconds since trace start.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span's duration in nanoseconds. For spans still open
	// when a snapshot was taken it holds the elapsed time so far, and
	// Open is true.
	DurNs int64 `json:"dur_ns"`
	// Open marks a span that had not ended when the snapshot was taken.
	Open bool `json:"open,omitempty"`
	// Done/Total are the last progress counts observed within the span
	// (progress-derived spans only; units are stage-specific).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// Timer measures one duration. The zero Timer is invalid; use StartTimer.
// It exists so packages under the detrand lint scope can measure
// wall-clock intervals without ever touching the clock themselves.
type Timer struct {
	t0 time.Time
}

// StartTimer starts a Timer at the current instant.
func StartTimer() Timer { return Timer{t0: time.Now()} }

// Seconds returns the time elapsed since the timer started, in seconds.
func (t Timer) Seconds() float64 { return time.Since(t.t0).Seconds() }

// Elapsed returns the time elapsed since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.t0) }

// Recorder collects the spans of one traced run. It is safe for
// concurrent use: the analysis driver calls Begin/Progress from worker
// goroutines while status endpoints snapshot concurrently.
//
// Two span sources feed it:
//
//   - Begin brackets an explicit phase and returns its end function — the
//     shape of the exp.TraceSink hook, so the analysis driver marks
//     phases without ever reading the clock itself;
//   - Progress adapts the ndetect.Progress stream: each stage transition
//     closes the previous progress-derived span and opens the next, and
//     repeated callbacks within a stage update its Done/Total counts. A
//     progress-derived span also closes when the bracket it started
//     inside ends, so a stage's last span never runs on into the next
//     phase.
//
// A Recorder never influences what it observes; it exists for the
// serving layer's /trace dumps, stage histograms and the CLI's -trace
// table (DESIGN.md §14).
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	ended []bool
	cur   int // index of the open progress-derived span, or -1
	curIn int // index of the bracket cur started inside, or -1
}

// NewRecorder starts an empty recorder; its trace clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), cur: -1, curIn: -1}
}

// Begin opens an explicit span and returns the function that ends it.
// The end function is idempotent; ending out of order is allowed (spans
// are a flat timed list, not a strict tree).
func (r *Recorder) Begin(name string) func() {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.pushLocked(name)
	return func() { r.end(i) }
}

// Progress records one ndetect.Progress callback: a stage change closes
// the current progress span and opens a new one inside the innermost open
// bracket; within a stage only the counts advance.
func (r *Recorder) Progress(stage string, done, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur < 0 || r.spans[r.cur].Name != stage {
		if r.cur >= 0 {
			r.endLocked(r.cur, r.now())
		}
		// With cur ended, every span still open is a bracket.
		r.curIn = -1
		for i := len(r.spans) - 1; i >= 0; i-- {
			if !r.ended[i] {
				r.curIn = i
				break
			}
		}
		r.cur = r.pushLocked(stage)
	}
	r.spans[r.cur].Done = done
	r.spans[r.cur].Total = total
}

// Elapsed returns the time since the recorder was created — the
// end-to-end duration of whatever it is tracing.
func (r *Recorder) Elapsed() time.Duration { return time.Since(r.t0) }

// Snapshot returns a copy of the spans recorded so far, in start order.
// Spans still open report their elapsed time so far with Open set.
func (r *Recorder) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	for i := range out {
		if !r.ended[i] {
			out[i].DurNs = now - out[i].StartNs
			out[i].Open = true
		}
	}
	return out
}

// Finish closes every span still open (the trailing progress span and
// any phase whose end call was skipped by an error return) and returns
// the final spans. The recorder remains usable but is conventionally
// done.
func (r *Recorder) Finish() []Span {
	r.mu.Lock()
	now := r.now()
	for i := range r.spans {
		r.endLocked(i, now)
	}
	r.cur = -1
	r.mu.Unlock()
	return r.Snapshot()
}

// now returns the trace clock in nanoseconds since the recorder started.
func (r *Recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

func (r *Recorder) pushLocked(name string) int {
	r.spans = append(r.spans, Span{Name: name, StartNs: r.now()})
	r.ended = append(r.ended, false)
	return len(r.spans) - 1
}

// end closes span i and, when i is the bracket the open progress-derived
// span started inside, that span too, at the same instant.
func (r *Recorder) end(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.endLocked(i, now)
	if r.cur >= 0 && r.curIn == i {
		r.endLocked(r.cur, now)
		r.cur = -1
	}
}

func (r *Recorder) endLocked(i int, now int64) {
	if r.ended[i] {
		return
	}
	r.ended[i] = true
	r.spans[i].DurNs = now - r.spans[i].StartNs
}

// FormatTable renders spans as the CLI's -trace stage-timing table:
// one row per span in start order, with start offset, duration and the
// final progress counts where present.
func FormatTable(spans []Span) string {
	var b strings.Builder
	w := 12
	for _, s := range spans {
		if len(s.Name) > w {
			w = len(s.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s %10s %12s  %s\n", w, "stage", "start", "duration", "progress")
	for _, s := range spans {
		prog := ""
		if s.Total != 0 {
			prog = fmt.Sprintf("%d/%d", s.Done, s.Total)
		}
		dur := time.Duration(s.DurNs).Round(time.Microsecond).String()
		if s.Open {
			dur += "+"
		}
		fmt.Fprintf(&b, "%-*s %10s %12s  %s\n", w, s.Name,
			time.Duration(s.StartNs).Round(time.Microsecond), dur, prog)
	}
	return b.String()
}

// TraceLog retains the spans of recently completed traces, keyed by job
// ID, bounded FIFO — the backing store of the daemon's /trace/{id}
// endpoint. Safe for concurrent use.
type TraceLog struct {
	mu    sync.Mutex
	cap   int
	order []string
	byID  map[string][]Span
}

// NewTraceLog creates a log retaining up to capacity traces (<= 0 means
// a default of 128).
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &TraceLog{cap: capacity, byID: make(map[string][]Span)}
}

// Add records a completed trace, evicting the oldest beyond capacity.
// Re-adding an ID refreshes its spans without duplicating the slot.
func (l *TraceLog) Add(id string, spans []Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byID[id]; !ok {
		l.order = append(l.order, id)
		for len(l.order) > l.cap {
			delete(l.byID, l.order[0])
			l.order = l.order[1:]
		}
	}
	l.byID[id] = spans
}

// Get returns the retained spans of one trace.
func (l *TraceLog) Get(id string) ([]Span, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.byID[id]
	return s, ok
}
