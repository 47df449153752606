package main

import (
	"sync"
	"time"
)

// Per-layer accounting for the traced run. Spans are recorded by the
// benchmark around its calls into each layer and through the hooks the
// analysis exposes (exp.TraceSink brackets and the ndetect.Progress
// stream); nothing inside the program is instrumented. Each request's
// spans form a tree rooted at the request's wall time, and a layer's self
// time is its span minus the child spans it covers, so the self times of
// all layers plus exp.untraced_ms add up to the request wall time.

// bracketLayer maps exp.AnalyzeCircuit's bracket names to the layer
// whose self time the bracket measures. The universe bracket's children
// are the construction stages below; what they leave uncovered — assembly
// after a build, or the whole lookup when a universe source supplies it —
// is ndetect.assemble.
var bracketLayer = map[string]string{
	"canonicalize": "circuit.canonicalize",
	"universe":     "ndetect.assemble",
	"worstcase":    "ndetect.worstcase",
	"procedure1":   "ndetect.procedure1",
	"partition":    "partition.analyze",
}

// stageLayer maps universe-construction progress (done of 3) to layers:
// simulation, target T-sets, untargeted T-sets, then assembly from the
// 3/3 callback to the end of the universe bracket.
var stageLayer = [4]string{"sim.simulate", "sim.target_tsets", "sim.untargeted_tsets", "ndetect.assemble"}

// reqTracer records the spans of one compute request. It implements
// exp.TraceSink, and Progress is its ndetect.Progress callback.
type reqTracer struct {
	mu      sync.Mutex
	bracket string
	start   time.Time
	covered time.Duration // bracket time covered by progress stages
	stage   int           // open progress stage (index of done), -1 = none
	stageAt time.Time
	built   bool // the request constructed its universe (saw progress 0/3)
	self    map[string]time.Duration
}

func newReqTracer() *reqTracer {
	return &reqTracer{stage: -1, self: map[string]time.Duration{}}
}

// Begin opens an analysis bracket; the returned function closes it together
// with any progress stage still open inside it.
func (t *reqTracer) Begin(name string) func() {
	t.mu.Lock()
	t.bracket, t.start, t.covered, t.stage = name, time.Now(), 0, -1
	t.mu.Unlock()
	return func() {
		now := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.bracket != name {
			return // already closed
		}
		t.closeStage(now)
		if layer, ok := bracketLayer[name]; ok {
			t.self[layer] += now.Sub(t.start) - t.covered
		}
		t.bracket = ""
	}
}

// Progress opens a universe-construction stage at each transition and
// closes the previous one there. Progress outside the universe bracket
// (worst case, Procedure 1, parts) lies inside brackets that already
// time it.
func (t *reqTracer) Progress(_ string, done, total int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bracket != "universe" || total != 3 || done < 0 || done > 3 || done == t.stage {
		return
	}
	t.closeStage(now)
	t.stage, t.stageAt = done, now
	if done == 0 {
		t.built = true
	}
}

func (t *reqTracer) closeStage(now time.Time) {
	if t.stage < 0 {
		return
	}
	d := now.Sub(t.stageAt)
	t.self[stageLayer[t.stage]] += d
	t.covered += d
	t.stage = -1
}

// ledger sums the layer self times and work counts of a traced pass.
type ledger struct {
	requests int
	wall     time.Duration
	self     map[string]time.Duration
	// nested holds layer spans that lie inside a self-timed span rather
	// than beside it: the daemon's analysis brackets inside the client's
	// calls on serve-mixed. They are reported but not subtracted again.
	nested map[string]time.Duration
	counts map[string]float64
}

func newLedger() *ledger {
	return &ledger{self: map[string]time.Duration{}, nested: map[string]time.Duration{}, counts: map[string]float64{}}
}

// add records one request: its wall time, the self times of the layers
// it passed through, and its work counts.
func (l *ledger) add(wall time.Duration, self map[string]time.Duration, counts map[string]float64) {
	l.requests++
	l.wall += wall
	for k, v := range self {
		l.self[k] += v
	}
	for k, v := range counts {
		l.counts[k] += v
	}
}

// perRequest returns a summed quantity per request.
func (l *ledger) perRequest(total float64) float64 {
	if l.requests == 0 {
		return 0
	}
	return total / float64(l.requests)
}

// layersMs returns each layer's mean self time per request in ms, plus
// exp.request_ms and exp.untraced_ms (wall time minus every top-level
// layer span).
func (l *ledger) layersMs() map[string]float64 {
	out := map[string]float64{}
	var traced time.Duration
	for k, v := range l.self {
		out[k+"_ms"] = l.perRequest(ms(v))
		traced += v
	}
	for k, v := range l.nested {
		out[k+"_ms"] = l.perRequest(ms(v))
	}
	out["exp.request_ms"] = l.perRequest(ms(l.wall))
	out["exp.untraced_ms"] = l.perRequest(ms(l.wall - traced))
	return out
}
