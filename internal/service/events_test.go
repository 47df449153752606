package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/report"
)

// stubProgress is the deterministic progress sequence the stubbed run
// emits; the event-order tests assert it arrives intact, in order, both
// through Manager.Events and through the SSE endpoint.
var stubProgress = []ProgressInfo{
	{Stage: "simulate", Done: 0, Total: 3},
	{Stage: "universe", Done: 3, Total: 3},
	{Stage: "procedure1", Done: 10, Total: 100},
	{Stage: "procedure1", Done: 100, Total: 100},
}

func progressStubManager(release chan struct{}) *Manager {
	return NewManager(Config{
		Workers: 2,
		run: func(c *circuit.Circuit, req exp.AnalysisRequest) (*report.Analysis, error) {
			<-release
			for _, p := range stubProgress {
				req.Progress(p.Stage, p.Done, p.Total)
			}
			return stubAnalysis(req.Kind), nil
		},
	})
}

// drainUntilTerminal consumes a subscription until its terminal event.
func drainUntilTerminal(t *testing.T, sub *EventSub) []JobEvent {
	t.Helper()
	var events []JobEvent
	deadline := time.After(30 * time.Second)
	for {
		select {
		case <-sub.Notify():
		case <-deadline:
			t.Fatalf("no terminal event after %d events", len(events))
		}
		for _, ev := range sub.Drain() {
			events = append(events, ev)
			if ev.Terminal() {
				return events
			}
		}
	}
}

// The event stream contract (DESIGN.md §14): a snapshot on subscribe,
// then every progress update in emission order, sequence numbers strictly
// increasing, ending with the terminal state event.
func TestEventStreamOrder(t *testing.T) {
	release := make(chan struct{})
	m := progressStubManager(release)
	info, _, err := m.Submit(c17(t), worstcaseReq())
	if err != nil {
		t.Fatal(err)
	}

	snap, sub, ok := m.Events(info.ID)
	if !ok || sub == nil {
		t.Fatalf("Events(%s): ok=%v sub=%v", info.ID, ok, sub)
	}
	defer m.Unsubscribe(info.ID, sub)
	if snap.Type != EventState || snap.Terminal() {
		t.Fatalf("snapshot = %+v, want a non-terminal state event", snap)
	}
	close(release)

	events := drainUntilTerminal(t, sub)
	seq := snap.Seq
	var got []ProgressInfo
	for _, ev := range events {
		if ev.Seq <= seq {
			t.Errorf("event seq %d not increasing after %d", ev.Seq, seq)
		}
		seq = ev.Seq
		if ev.Type == EventProgress {
			got = append(got, *ev.Progress)
		}
	}
	if len(got) != len(stubProgress) {
		t.Fatalf("got %d progress events, want %d: %+v", len(got), len(stubProgress), got)
	}
	for i, want := range stubProgress {
		if got[i] != want {
			t.Errorf("progress %d = %+v, want %+v", i, got[i], want)
		}
	}
	last := events[len(events)-1]
	if last.Info.State != JobDone {
		t.Fatalf("terminal event state = %s, want done", last.Info.State)
	}
}

// A subscription to an already-completed job is the terminal snapshot
// alone (nil sub); unknown jobs are not found.
func TestEventsSnapshotForCompletedJob(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	info, _, err := m.Submit(c17(t), worstcaseReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(info.ID); err != nil {
		t.Fatal(err)
	}
	snap, sub, ok := m.Events(info.ID)
	if !ok || sub != nil || !snap.Terminal() {
		t.Fatalf("completed job: ok=%v sub=%v snap=%+v", ok, sub, snap)
	}
	if _, _, ok := m.Events("ffffffffffffffffffffffff"); ok {
		t.Fatal("unknown job found")
	}
}

// parseSSE reads one SSE stream into events, stopping at the terminal
// state event.
func parseSSE(t *testing.T, r *bufio.Scanner) []JobEvent {
	t.Helper()
	var events []JobEvent
	var data string
	for r.Scan() {
		line := r.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data += strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var ev JobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
			data = ""
			if ev.Terminal() {
				return events
			}
		}
	}
	t.Fatalf("stream ended without a terminal event (%d events)", len(events))
	return nil
}

// The SSE endpoint relays the same events in the same order as
// Manager.Events — the HTTP leg of the ordering contract.
func TestHTTPEventsSSE(t *testing.T) {
	release := make(chan struct{})
	m := progressStubManager(release)
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	post := fmt.Sprintf(`{"format":"bench","name":"c17","source":%q,"analysis":"worstcase"}`, c17Source)
	sub, code := postJob(t, ts.URL, post)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control %q", cc)
	}
	close(release)

	events := parseSSE(t, bufio.NewScanner(resp.Body))
	if events[0].Type != EventState {
		t.Fatalf("first event = %+v, want the state snapshot", events[0])
	}
	var got []ProgressInfo
	seq := int64(0)
	for i, ev := range events {
		if i > 0 && ev.Seq <= seq {
			t.Errorf("event seq %d not increasing after %d", ev.Seq, seq)
		}
		seq = ev.Seq
		if ev.Type == EventProgress {
			got = append(got, *ev.Progress)
		}
	}
	for i, want := range stubProgress {
		if i >= len(got) || got[i] != want {
			t.Fatalf("SSE progress order differs from emission order: %+v", got)
		}
	}
	if last := events[len(events)-1]; last.Info.State != JobDone {
		t.Fatalf("terminal state = %s", last.Info.State)
	}

	// A second connect after completion replays the terminal snapshot and
	// closes immediately.
	resp2, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := parseSSE(t, bufio.NewScanner(resp2.Body))
	if len(replay) != 1 || !replay[0].Terminal() {
		t.Fatalf("replay = %+v, want exactly the terminal snapshot", replay)
	}

	if resp, err := http.Get(ts.URL + "/jobs/ffffffffffffffffffffffff/events"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job events: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// The observability contract: a job the manager computes with its trace
// recorder and a live SSE consumer attached serves exactly the bytes of
// the untraced direct driver run.
func TestTracedJobByteIdenticalToUntraced(t *testing.T) {
	direct, err := exp.AnalyzeCircuit(c17(t), averageReq(7))
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Encode()

	traced := NewManager(Config{Workers: 4})
	info, _, err := traced.Submit(c17(t), averageReq(7))
	if err != nil {
		t.Fatal(err)
	}
	consumed := make(chan int, 1)
	snap, sub, ok := traced.Events(info.ID)
	switch {
	case !ok:
		t.Fatal("no event stream on the traced manager")
	case sub == nil:
		// The job outran the subscribe: the terminal snapshot is the whole
		// stream (the replay path, still a consumed stream).
		if !snap.Terminal() {
			t.Fatalf("nil sub with non-terminal snapshot %+v", snap)
		}
		consumed <- 1
	default:
		go func() {
			defer traced.Unsubscribe(info.ID, sub)
			n := 1 // the snapshot
			for range sub.Notify() {
				for _, ev := range sub.Drain() {
					n++
					if ev.Terminal() {
						consumed <- n
						return
					}
				}
			}
		}()
	}
	got, err := traced.Wait(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-consumed:
		if n == 0 {
			t.Fatal("SSE consumer saw no events")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE consumer never saw the terminal event")
	}

	if !bytes.Equal(want, got) {
		t.Fatalf("traced run differs from the direct driver:\n%s\n---\n%s", want, got)
	}

	// The manager retained the span dump.
	spans, ok := traced.Trace(info.ID)
	if !ok || len(spans) == 0 {
		t.Fatalf("traced manager has no trace: ok=%v spans=%d", ok, len(spans))
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"canonicalize", "universe", "worstcase", "procedure1", "encode"} {
		if !names[want] {
			t.Errorf("trace missing span %q: %v", want, spans)
		}
	}
}
