package exp

import (
	"fmt"
	"sort"
	"sync"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/partition"
	"ndetect/internal/report"
)

// Single-circuit analysis driver.
//
// AnalyzeCircuit is the one code path behind both `cmd/ndetect -json` and
// the ndetectd serving layer: it runs one of the three analyses on one
// circuit and shapes the result into the report.Analysis JSON document.
// Because the computation is a pure function of (circuit, identity
// options, seed) — DESIGN.md §7 — and report.Analysis encodes
// deterministically, the emitted bytes are identical for every Workers
// value and across CLI and daemon, which is what makes server results
// cacheable and CLI-diffable (DESIGN.md §10).

// AnalysisKind selects which of the three analysis facades a request runs.
type AnalysisKind string

// The three analysis kinds, mirroring the facades in the root package.
const (
	// WorstCaseAnalysis runs the Section 2 worst-case pass.
	WorstCaseAnalysis AnalysisKind = "worstcase"
	// AverageAnalysis runs the worst-case pass plus the Section 3
	// Procedure 1 estimate on the faults the worst case does not settle.
	AverageAnalysis AnalysisKind = "average"
	// PartitionedAnalysis runs the Section 4 partitioned pipeline for
	// circuits too wide for exhaustive analysis.
	PartitionedAnalysis AnalysisKind = "partitioned"
)

// AnalysisRequest describes one single-circuit analysis. The identity
// fields (Kind, FaultModel, NMax, K, Seed, Definition, Ge11Limit,
// MaxInputs) select the result; Workers and Progress never influence it
// (DESIGN.md §7).
type AnalysisRequest struct {
	// Kind is identity carried by the §10 document envelope rather than
	// the Options block: the job key and the result document record it,
	// but IdentityOptions (which mirrors report.Options) does not.
	Kind AnalysisKind // ndetect:identity-envelope

	// FaultModel selects the fault model the universe is built under
	// (fault.Resolve); empty means the default model, and Normalize
	// canonicalizes an explicit default ID to empty so the two spellings
	// share one identity. Worst-case and average analyses accept any
	// model (Definition 2 additionally requires stuck-at targets); the
	// partitioned pipeline is default-model only.
	FaultModel string

	// Average-case identity options (used when Kind is AverageAnalysis).
	NMax       int   // deepest n-detection level (default 10)
	K          int   // test sets per n (default 1000)
	Seed       int64 // Procedure 1 seed
	Definition int   // 1 (default) or 2
	Ge11Limit  int   // cap on the analysed subset, 0 = none (DESIGN.md §4)

	// Partitioned identity option (used when Kind is PartitionedAnalysis).
	MaxInputs int // per-part input limit (default partition.DefaultMaxInputs)

	// Workers bounds the §5 worker budget for every stage (0 = one per
	// CPU, 1 = serial). Not part of the result identity.
	Workers int // ndetect:nonidentity
	// Progress, when non-nil, observes stage transitions. Not part of the
	// result identity.
	Progress ndetect.Progress // ndetect:nonidentity
	// Universes, when non-nil, supplies the exhaustive universe instead
	// of constructing it per request — the hook behind the artifact
	// store's universe tier and the sweep engine's sharing (DESIGN.md
	// §11). A source must return exactly what ndetect.BuildUniverse
	// would build for the canonical circuit and model, which is why
	// substituting one never changes result bytes; it is not part of the
	// result identity. Ignored by the partitioned analysis (per-part
	// universes are constructed inside the pipeline).
	Universes UniverseSource // ndetect:nonidentity
	// Trace, when non-nil, observes the driver's bracketed phases
	// (canonicalize, universe, worstcase, procedure1, partition) for
	// stage-level tracing (DESIGN.md §14). Like Progress it only
	// observes; it is not part of the result identity.
	Trace TraceSink // ndetect:nonidentity
}

// TraceSink receives bracketed phase spans from the analysis driver:
// Begin marks the start of a named phase and returns the function that
// ends it. The driver only ever marks phases — all timing happens inside
// the implementation (obs.Recorder in production), which is how span
// durations exist without any clock read in the detrand-scoped packages
// (DESIGN.md §13, §14). A sink must be safe for concurrent use and must
// never influence the analysis.
type TraceSink interface {
	Begin(name string) (end func())
}

// UniverseSource supplies the exhaustive universe of a canonical circuit
// under a fault model: T(f)/T(g) bitsets and fault tables, the dominant
// cost every result-identity option variant shares. Implementations load
// it from the artifact store or hand out one a sweep resolved up front;
// store.Store is one. opts carries the caller's worker budget and
// progress hook — a source that does construct must thread them through,
// and the universe returned must be identical for every opts value (§7).
type UniverseSource interface {
	Universe(c *circuit.Circuit, m fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error)
}

// Normalize fills defaults and zeroes the fields the kind ignores, so that
// two requests for the same result compare (and cache-key) equal. It
// errors on an unknown kind or definition.
func (r *AnalysisRequest) Normalize() error {
	m, err := fault.Resolve(r.FaultModel)
	if err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	// Canonical spelling: the default model is the empty string, so an
	// explicit "stuckat+bridge4" and an omitted model share one identity
	// (and default-model documents stay byte-identical to pre-registry
	// ones — fault_model is omitempty).
	if m.ID() == fault.DefaultModelID {
		r.FaultModel = ""
	} else {
		r.FaultModel = m.ID()
	}
	switch r.Kind {
	case WorstCaseAnalysis:
		r.NMax, r.K, r.Seed, r.Definition, r.Ge11Limit, r.MaxInputs = 0, 0, 0, 0, 0, 0
	case AverageAnalysis:
		if r.NMax <= 0 {
			r.NMax = 10
		}
		if r.K <= 0 {
			r.K = 1000
		}
		if r.Seed == 0 {
			r.Seed = 1 // cmd/ndetect's -seed default; CLI and server must agree
		}
		if r.Definition == 0 {
			r.Definition = int(ndetect.Def1)
		}
		if r.Definition != int(ndetect.Def1) && r.Definition != int(ndetect.Def2) {
			return fmt.Errorf("exp: unknown definition %d (want 1 or 2)", r.Definition)
		}
		if r.Definition == int(ndetect.Def2) && !m.Def2Capable() {
			return fmt.Errorf("exp: definition 2 requires single stuck-at targets, which fault model %s does not have", m.ID())
		}
		if r.Ge11Limit < 0 {
			r.Ge11Limit = 0
		}
		r.MaxInputs = 0
	case PartitionedAnalysis:
		if r.FaultModel != "" {
			return fmt.Errorf("exp: the partitioned analysis supports only the default fault model, not %s", r.FaultModel)
		}
		if r.MaxInputs <= 0 {
			r.MaxInputs = partition.DefaultMaxInputs
		}
		r.NMax, r.K, r.Seed, r.Definition, r.Ge11Limit = 0, 0, 0, 0, 0
	default:
		return fmt.Errorf("exp: unknown analysis kind %q (want worstcase, average or partitioned)", r.Kind)
	}
	return nil
}

// IdentityOptions returns the result-identity options as they appear in
// the emitted document (and in the serving layer's cache key).
func (r *AnalysisRequest) IdentityOptions() report.Options {
	return report.Options{
		FaultModel: r.FaultModel,
		NMax:       r.NMax,
		K:          r.K,
		Seed:       r.Seed,
		Definition: r.Definition,
		Ge11Limit:  r.Ge11Limit,
		MaxInputs:  r.MaxInputs,
	}
}

// AnalyzeCircuit runs one analysis on one circuit and returns the
// machine-readable result document. The request is normalized first, so
// callers may leave defaults zero.
//
// The circuit is canonicalized before analysis (circuit.Canonicalize):
// fault enumeration order — and with it the document's per-fault ordering
// and Procedure 1's seeded sampling — follows node-ID order, so analyzing
// the canonical form is what makes hash-equal circuits produce
// byte-identical documents regardless of source statement order.
func AnalyzeCircuit(c *circuit.Circuit, req AnalysisRequest) (*report.Analysis, error) {
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	// Phase spans for the trace sink: span(name) opens a phase and returns
	// its end function (a no-op without a sink, so the traced and untraced
	// code paths are one and the same — §14's non-interference argument).
	span := func(name string) func() {
		if req.Trace == nil {
			return func() {}
		}
		return req.Trace.Begin(name)
	}

	endCanon := span("canonicalize")
	c, err := circuit.Canonicalize(c)
	endCanon()
	if err != nil {
		return nil, fmt.Errorf("exp: canonicalize: %w", err)
	}
	doc := &report.Analysis{
		Schema:  report.AnalysisSchema,
		Kind:    string(req.Kind),
		Circuit: circuitInfo(c),
		Options: req.IdentityOptions(),
	}

	progress := func(stage string, done, total int) {
		if req.Progress != nil {
			req.Progress(stage, done, total)
		}
	}

	if req.Kind == PartitionedAnalysis {
		endParts := span("partition")
		doc.Partitioned, err = analyzeParts(c, req.MaxInputs, req.Workers, progress)
		endParts()
		if err != nil {
			return nil, err
		}
		return doc, nil
	}

	m, err := fault.Resolve(req.FaultModel) // Normalize already vetted the ID
	if err != nil {
		return nil, err
	}
	aopts := ndetect.AnalyzeOptions{Workers: req.Workers, Progress: req.Progress}
	endUniverse := span("universe")
	var u *ndetect.CircuitUniverse
	if req.Universes != nil {
		u, err = req.Universes.Universe(c, m, aopts)
	} else {
		u, err = ndetect.BuildUniverse(c, m, aopts)
	}
	endUniverse()
	if err != nil {
		return nil, err
	}
	endWC := span("worstcase")
	progress("worstcase", 0, 1)
	wc := ndetect.WorstCaseWorkers(&u.Universe, req.Workers)
	progress("worstcase", 1, 1)
	doc.WorstCase = worstCaseJSON(u, wc)
	endWC()

	if req.Kind == AverageAnalysis {
		endAvg := span("procedure1")
		avg, err := averageJSON(u, wc, &req, progress)
		endAvg()
		if err != nil {
			return nil, err
		}
		doc.Average = avg
	}
	return doc, nil
}

func circuitInfo(c *circuit.Circuit) report.CircuitInfo {
	s := c.ComputeStats()
	return report.CircuitInfo{
		Name:            c.Name,
		Hash:            circuit.Hash(c),
		Inputs:          s.Inputs,
		Outputs:         s.Outputs,
		Gates:           s.Gates,
		MultiInputGates: s.MultiInputGates,
		Branches:        s.Branches,
		Depth:           s.MaxLevel,
		VectorSpace:     s.VectorSpaceSize,
	}
}

// jsonNMin maps the in-memory Unbounded sentinel onto the document's -1.
func jsonNMin(v int) int {
	if v == ndetect.Unbounded {
		return report.UnboundedJSON
	}
	return v
}

// WorstCaseOf maps a document's per-fault verdicts back onto in-memory
// nmin values, the document's -1 onto ndetect.Unbounded, so that readers
// of a document count, order and histogram them by the analysis's own
// rules.
func WorstCaseOf(faults []report.FaultNMin) *ndetect.WorstCaseResult {
	nmin := make([]int, len(faults))
	for i, f := range faults {
		nmin[i] = f.NMin
		if f.NMin == report.UnboundedJSON {
			nmin[i] = ndetect.Unbounded
		}
	}
	return &ndetect.WorstCaseResult{NMin: nmin}
}

// nminSummary reads the coverage, tail, unbounded and max-finite fields
// that a worst-case section and a partitioned section's merged table both
// carry off their nmin values.
func nminSummary(wc *ndetect.WorstCaseResult) (coverage []report.CoveragePoint, tail []report.TailPoint, unbounded, maxFinite int) {
	coverage = make([]report.CoveragePoint, 0, len(report.NMinColumns))
	for _, n := range report.NMinColumns {
		coverage = append(coverage, report.CoveragePoint{N: n, Pct: 100 * wc.CoverageAt(n)})
	}
	tail = make([]report.TailPoint, 0, len(report.Table3Columns))
	for _, n := range report.Table3Columns {
		cnt := wc.CountAtLeast(n)
		pct := 0.0
		if total := len(wc.NMin); total > 0 {
			pct = 100 * float64(cnt) / float64(total)
		}
		tail = append(tail, report.TailPoint{N: n, Count: cnt, Pct: pct})
	}
	return coverage, tail, wc.CountAtLeast(ndetect.Unbounded), wc.MaxFinite()
}

func worstCaseJSON(u *ndetect.CircuitUniverse, wc *ndetect.WorstCaseResult) *report.WorstCase {
	out := &report.WorstCase{
		Targets:           len(u.Targets),
		DetectableTargets: u.DetectableTargets(),
		Untargeted:        len(u.Untargeted),
		NMin:              make([]report.FaultNMin, len(u.Untargeted)),
	}
	out.Coverage, out.Tail, out.Unbounded, out.MaxFinite = nminSummary(wc)
	for j, g := range u.Untargeted {
		out.NMin[j] = report.FaultNMin{Name: g.Name, NMin: jsonNMin(wc.NMin[j])}
	}
	return out
}

// averageJSON runs Procedure 1 on the faults the worst case does not
// settle (nmin > NMax, capped like the Table 5/6 drivers) and summarizes
// it. An empty subset yields a document with Faults 0 and no Procedure 1
// run — the JSON form of the CLI's "nothing to estimate".
func averageJSON(u *ndetect.CircuitUniverse, wc *ndetect.WorstCaseResult, req *AnalysisRequest, progress ndetect.Progress) (*report.Average, error) {
	avg := &report.Average{
		Definition:  req.Definition,
		SubsetAbove: req.NMax + 1,
		Thresholds:  []report.ThresholdPoint{},
		P:           []report.FaultP{},
	}
	idx := capEvenly(wc.IndicesAtLeast(req.NMax+1), wc.NMin, req.Ge11Limit)
	avg.Faults = len(idx)
	if len(idx) == 0 {
		return avg, nil
	}

	sub := u.SubsetUntargeted(idx)
	opts := ndetect.Procedure1Options{
		NMax:    req.NMax,
		K:       req.K,
		Seed:    req.Seed,
		Workers: req.Workers,
		Progress: func(done, total int) {
			progress("procedure1", done, total)
		},
	}
	if req.Definition == int(ndetect.Def2) {
		opts.Definition = ndetect.Def2
		opts.Checker = ndetect.NewCircuitCheckerFor(u)
	}
	res, err := ndetect.Procedure1(sub, opts)
	if err != nil {
		return nil, err
	}

	counts := res.ThresholdCounts(req.NMax, report.Thresholds)
	for i, th := range report.Thresholds {
		avg.Thresholds = append(avg.Thresholds, report.ThresholdPoint{P: th, Count: counts[i]})
	}
	minP, at := res.MinP(req.NMax)
	avg.MinP = minP
	avg.MinPFault = sub.Untargeted[at].Name
	avg.ExpectedEscapes = res.ExpectedEscapes(req.NMax)
	avg.MeanSetSize = res.MeanSetSize(req.NMax)
	for j, g := range sub.Untargeted {
		avg.P = append(avg.P, report.FaultP{Name: g.Name, P: res.P(req.NMax, j)})
	}
	return avg, nil
}

// analyzeParts is the Section 4 pipeline on the canonical circuit: Split
// into output cones of at most maxInputs inputs, the exhaustive worst case
// of every part under the default model, and MergeNMin over the per-part
// verdicts by fault name. Parts fan out like RunAll's circuits, and each
// part's universe is released once its summary and name → nmin map are
// taken. A part is analysed as Split returns it, with no
// canonicalization, hashing or trace brackets of its own; progress
// reports each finished part as stage "parts", one call at a time, in
// completion order.
func analyzeParts(c *circuit.Circuit, maxInputs, workers int, progress ndetect.Progress) (*report.Partitioned, error) {
	parts, err := partition.Split(c, partition.Options{MaxInputs: maxInputs})
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	finished := 0
	perPart := make([]map[string]int, len(parts))
	infos, err := fanOut(workers, len(parts), func(i, inner int) (report.PartInfo, error) {
		p := parts[i]
		u, err := ndetect.BuildUniverse(p.Circuit, fault.Default(), ndetect.AnalyzeOptions{Workers: inner})
		if err != nil {
			return report.PartInfo{}, err
		}
		wc := ndetect.WorstCaseWorkers(&u.Universe, inner)
		perPart[i] = make(map[string]int, len(u.Untargeted))
		for j, g := range u.Untargeted {
			perPart[i][g.Name] = wc.NMin[j]
		}
		s := p.Circuit.ComputeStats()
		mu.Lock()
		finished++
		progress("parts", finished, len(parts))
		mu.Unlock()
		return report.PartInfo{
			Outputs:           p.Outputs,
			Inputs:            s.Inputs,
			VectorSpace:       s.VectorSpaceSize,
			Gates:             s.Gates,
			Targets:           len(u.Targets),
			DetectableTargets: u.DetectableTargets(),
			Untargeted:        len(u.Untargeted),
			CoverageAt10Pct:   100 * wc.CoverageAt(10),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	out := &report.Partitioned{MaxInputs: maxInputs, Parts: infos}
	merged := partition.MergeNMin(perPart)
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	wc := &ndetect.WorstCaseResult{NMin: make([]int, len(names))}
	out.Merged = make([]report.FaultNMin, len(names))
	for i, name := range names {
		wc.NMin[i] = merged[name]
		out.Merged[i] = report.FaultNMin{Name: name, NMin: jsonNMin(wc.NMin[i])}
	}
	out.MergedFaults = len(names)
	out.Coverage, out.Tail, out.Unbounded, out.MaxFinite = nminSummary(wc)
	return out, nil
}
