package service

import (
	"ndetect/internal/obs"
)

// Observability wiring (DESIGN.md §14): per-job span recorders feeding
// latency histograms, a bounded trace log behind the daemon's
// /trace/{id} endpoint, and gauges for the live scheduler state. All
// clock reads happen inside internal/obs — this package only calls
// hooks, so the detrand lint scope stays clean and results stay pure in
// (circuit, identity options, seed).

// traceDepth bounds the retained completed-job traces behind
// Manager.Trace.
const traceDepth = 128

// metrics is the manager's observability surface: lock-cheap atomics
// recorded on the serving hot path and rendered by GET /metrics.
type metrics struct {
	// jobDur observes end-to-end job latency, submit to terminal state.
	jobDur *obs.Histogram
	// stageDur observes per-stage latency, labeled by span name (driver
	// phases and progress stages — a small, bounded set).
	stageDur *obs.HistogramVec
	// storeDur observes store I/O latency, labeled tier_op
	// (e.g. "results_get", "universes_put").
	storeDur *obs.HistogramVec
	// admitWait observes the admission wait — the time a job spends in
	// the accept queue between submit and its worker grant (§15).
	admitWait *obs.Histogram
	// httpDur observes request latency per route class (httpClasses).
	// The label set is preset so the /metrics series list is complete
	// and stable from the first scrape.
	httpDur *obs.HistogramVec

	// streaming counts open SSE event subscriptions — the one live gauge
	// the scheduler state cannot answer (queue depth, inflight jobs and
	// universe flights all derive from Counters).
	streaming obs.Gauge
}

// httpClasses is the fixed request-class label universe of httpDur: one
// class per route. For "events" the recorded duration is the SSE stream
// lifetime, not a handler turnaround.
var httpClasses = []string{"submit", "sweep", "status", "result", "events", "healthz", "metrics"}

func newMetrics() *metrics {
	return &metrics{
		jobDur:    obs.NewHistogram(nil),
		stageDur:  obs.NewHistogramVec(nil),
		storeDur:  obs.NewHistogramVec(nil),
		admitWait: obs.NewHistogram(nil),
		httpDur:   obs.NewHistogramVec(nil).Preset(httpClasses...),
	}
}

// observeTrace feeds one completed job's spans into the per-stage
// histograms.
func (mt *metrics) observeTrace(spans []obs.Span) {
	for _, sp := range spans {
		mt.stageDur.Observe(sp.Name, float64(sp.DurNs)/1e9)
	}
}

// storeObserver adapts the metrics to the artifact store's I/O hook
// (store.Observer): timing lives here, on the obs side, never in the
// store itself.
type storeObserver struct {
	dur *obs.HistogramVec
}

func (o storeObserver) Op(tier, op string) func(bytes int, ok bool) {
	t := obs.StartTimer()
	return func(int, bool) { o.dur.Observe(tier+"_"+op, t.Seconds()) }
}

// Trace returns the span dump of one job: a live snapshot while the job
// is in flight, or the retained trace of a recently completed job. ok is
// false for unknown jobs and jobs evicted from the trace log.
func (m *Manager) Trace(id string) ([]obs.Span, bool) {
	m.mu.Lock()
	if j, ok := m.inflight[id]; ok {
		rec := j.rec
		m.mu.Unlock()
		return rec.Snapshot(), true
	}
	m.mu.Unlock()
	return m.traces.Get(id)
}
