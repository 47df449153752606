package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metrics primitives: lock-cheap atomics recorded on the serving hot
// path, rendered on demand into the Prometheus text exposition format
// (version 0.0.4) with HELP/TYPE headers, stable order and no duplicate
// names — the properties the /metrics golden test pins.

// Gauge is an instantaneous value backed by one atomic.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency histogram bounds in seconds:
// half-millisecond resolution at the fast end (cache probes, store I/O)
// up to minutes (cold universe constructions on wide circuits).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket latency histogram. Observations are two
// atomic adds and one atomic float accumulation — cheap enough for
// per-progress-event call sites. The zero Histogram is not usable; use
// NewHistogram.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// NewHistogram creates a histogram over the given ascending upper bounds
// (nil means DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// rendering: per-bucket cumulative counts (ending with +Inf), the total
// count and the observation sum. The JSON form is what the
// ndetect.load/v1 document embeds per workload class, so SLO tooling can
// re-derive any quantile from the raw buckets (load.go).
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`     // upper bounds, ascending, excluding +Inf
	Cumulative []uint64  `json:"cumulative"` // len(Bounds)+1, cumulative, last = Count
	Count      uint64    `json:"count"`
	Sum        float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution by linear interpolation within the winning bucket. The
// estimate is an upper bound in the usual histogram sense: every
// observation is attributed to its bucket's upper edge range, so the
// returned value never undershoots the true quantile by more than one
// bucket width (and p100 is exactly the +Inf bucket's lower edge when
// observations landed there). Observations in the +Inf overflow bucket
// clamp to the highest finite bound — a q that lands there reports that
// bound, the largest value the histogram can still resolve. NaN when the
// histogram is empty or q is outside (0, 1].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 || q > 1 || len(s.Cumulative) == 0 {
		return math.NaN()
	}
	// rank is the 1-based index of the target observation; ceil keeps
	// q=1 at the final observation and tiny q at the first.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	i := 0
	for i < len(s.Cumulative) && s.Cumulative[i] < rank {
		i++
	}
	if i >= len(s.Bounds) { // +Inf bucket: clamp to the last finite bound
		if len(s.Bounds) == 0 {
			return math.NaN()
		}
		return s.Bounds[len(s.Bounds)-1]
	}
	lo := 0.0
	prev := uint64(0)
	if i > 0 {
		lo = s.Bounds[i-1]
		prev = s.Cumulative[i-1]
	}
	hi := s.Bounds[i]
	inBucket := s.Cumulative[i] - prev
	if inBucket == 0 { // unreachable given the scan, but keep the math safe
		return hi
	}
	return lo + (hi-lo)*float64(rank-prev)/float64(inBucket)
}

// Snapshot returns the histogram's current cumulative bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	s.Count = cum
	s.Sum = h.sum.load()
	return s
}

// HistogramVec is a histogram family partitioned by one label (stage
// name, store operation). Children are created on first observation and
// render in sorted label order.
type HistogramVec struct {
	bounds []float64
	mu     sync.Mutex
	kids   map[string]*Histogram
}

// NewHistogramVec creates a labeled histogram family (nil bounds means
// DefBuckets).
func NewHistogramVec(bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{bounds: bounds, kids: make(map[string]*Histogram)}
}

// Observe records one value under the given label value.
func (v *HistogramVec) Observe(label string, val float64) {
	v.mu.Lock()
	h := v.kids[label]
	if h == nil {
		h = NewHistogram(v.bounds)
		v.kids[label] = h
	}
	v.mu.Unlock()
	h.Observe(val)
}

// Preset creates children for the given label values up front, so a
// fixed label universe renders complete (and in stable series order)
// from the first scrape on, before any observation lands.
func (v *HistogramVec) Preset(labels ...string) *HistogramVec {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, l := range labels {
		if v.kids[l] == nil {
			v.kids[l] = NewHistogram(v.bounds)
		}
	}
	return v
}

// Labels returns the observed label values in sorted (stable) order.
func (v *HistogramVec) Labels() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.kids))
	for k := range v.kids {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Child returns the histogram under one label value (nil if never
// observed).
func (v *HistogramVec) Child(label string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.kids[label]
}

// atomicFloat accumulates float64 values with CAS.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Exposition writes one Prometheus text scrape. Families render in call
// order (the caller's fixed order is what makes the output stable), each
// preceded by its # HELP and # TYPE lines.
type Exposition struct {
	w   io.Writer
	err error
}

// NewExposition starts a scrape onto w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

// printf writes to the scrape until the first write error, after which
// the rest of the scrape is dropped.
func (e *Exposition) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

func (e *Exposition) header(name, typ, help string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter renders one monotonic counter sample.
func (e *Exposition) Counter(name, help string, v uint64) {
	e.header(name, "counter", help)
	e.printf("%s %d\n", name, v)
}

// Gauge renders one gauge sample.
func (e *Exposition) Gauge(name, help string, v int64) {
	e.header(name, "gauge", help)
	e.printf("%s %d\n", name, v)
}

// Histogram renders one (unlabeled) histogram family.
func (e *Exposition) Histogram(name, help string, s HistogramSnapshot) {
	e.header(name, "histogram", help)
	e.histogramSeries(name, "", s)
}

// HistogramVec renders a labeled histogram family: one bucket series set
// per label value, in the vec's sorted label order.
func (e *Exposition) HistogramVec(name, help, label string, v *HistogramVec) {
	e.header(name, "histogram", help)
	for _, lv := range v.Labels() {
		e.histogramSeries(name, label+"="+strconv.Quote(lv), v.Child(lv).Snapshot())
	}
}

func (e *Exposition) histogramSeries(name, labels string, s HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, b := range s.Bounds {
		e.printf("%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatFloat(b), s.Cumulative[i])
	}
	e.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels == "" {
		e.printf("%s_sum %s\n", name, formatFloat(s.Sum))
		e.printf("%s_count %d\n", name, s.Count)
	} else {
		e.printf("%s_sum{%s} %s\n", name, labels, formatFloat(s.Sum))
		e.printf("%s_count{%s} %d\n", name, labels, s.Count)
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
