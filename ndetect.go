// Package ndetect reproduces "Worst-Case and Average-Case Analysis of
// n-Detection Test Sets" (Pomeranz & Reddy, DATE 2005): given a
// combinational circuit, it computes
//
//   - the worst-case guarantee nmin(g) for every untargeted fault g — the
//     smallest n such that EVERY n-detection test set for the single
//     stuck-at faults is guaranteed to detect g — and
//   - the average-case probability p(n,g) that an arbitrary n-detection
//     test set detects g, estimated over K random test sets built with the
//     paper's Procedure 1, under Definition 1 (plain detection counting) or
//     the stricter Definition 2 (similarity-filtered counting).
//
// The target faults F are the circuit's collapsed single stuck-at faults;
// the untargeted faults G are the detectable non-feedback four-way bridging
// faults between outputs of multi-input gates, exactly as in the paper.
//
// # Quick start
//
//	c, _ := ndetect.ParseNetlist(netlistText)
//	u, _ := ndetect.Analyze(c, "", ndetect.AnalyzeOptions{})
//	wc := ndetect.WorstCase(&u.Universe)
//	fmt.Println(wc.CoverageAt(10)) // fraction of G guaranteed by any 10-detection set
//
//	res, _ := ndetect.Procedure1(&u.Universe, ndetect.Procedure1Options{NMax: 10, K: 1000})
//	fmt.Println(res.P(10, 0)) // detection probability of fault 0
//	def2 := ndetect.Procedure1Options{NMax: 10, K: 1000, Checker: ndetect.NewDef2Checker(u)} // Definition 2
//
// Benchmark circuits (surrogates for the paper's MCNC suite) are available
// via Benchmarks and LoadBenchmark; see DESIGN.md for what is surrogate and
// why. The cmd/paper tool regenerates every table and figure of the paper.
package ndetect

import (
	"io"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	"ndetect/internal/kiss"
	core "ndetect/internal/ndetect"
	"ndetect/internal/partition"
	"ndetect/internal/report"
	"ndetect/internal/sim"
	"ndetect/internal/synth"
	"ndetect/internal/testgen"
)

// MaxExhaustiveInputs is the widest circuit Analyze accepts: the streaming
// engine keeps only block-sized scratch plus the per-fault T-sets, so the
// bound is set by result memory and simulation time, not by materialized
// per-node universes. Wider circuits go through AnalyzePartitioned.
const MaxExhaustiveInputs = sim.MaxInputs

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Circuit is a gate-level combinational netlist.
	Circuit = circuit.Circuit
	// Builder incrementally constructs a Circuit.
	Builder = circuit.Builder
	// Kind is a gate kind (And, Or, Not, ...).
	Kind = circuit.Kind
	// STG is a symbolic finite-state machine parsed from KISS2.
	STG = kiss.STG
	// SynthOptions controls FSM-to-netlist synthesis.
	SynthOptions = synth.Options
	// SynthResult is a synthesized circuit plus its interface mapping.
	SynthResult = synth.Result
	// StuckAt is a single stuck-at fault.
	StuckAt = fault.StuckAt
	// Bridge is a four-way dominance bridging fault.
	Bridge = fault.Bridge
	// Fault is a named fault with its exhaustive detection set T(f).
	// Read the set through Words (its words, written into the caller's
	// buffer when needed) or Set (the set itself): the default model's
	// bridges are factored, T(g) = S ∩ D over two shared sets, and leave
	// the T field nil.
	Fault = core.Fault
	// Universe is a target set F and untargeted set G over a vector space.
	Universe = core.Universe
	// CircuitUniverse binds a Universe to the circuit it came from.
	CircuitUniverse = core.CircuitUniverse
	// WorstCaseResult holds nmin(g) for every untargeted fault.
	WorstCaseResult = core.WorstCaseResult
	// PairContribution is one row of the paper's Table 1.
	PairContribution = core.PairContribution
	// TestSet is an ordered duplicate-free set of input vectors.
	TestSet = core.TestSet
	// Procedure1Options configures the random test set generator.
	Procedure1Options = core.Procedure1Options
	// Progress observes coarse stage transitions of a long-running
	// analysis (stage name, done, total). It never influences results.
	Progress = core.Progress
	// AnalyzeOptions configures Analyze: a worker budget (0 = one worker
	// per CPU, 1 = the serial path) and an optional progress hook
	// observing the construction stages. Neither is part of the result
	// identity: the universe built is the same for every setting.
	AnalyzeOptions = core.AnalyzeOptions
	// Procedure1Result holds detection statistics over the K runs.
	Procedure1Result = core.Procedure1Result
	// DistinctChecker is Definition 2's similarity oracle; a non-nil
	// Procedure1Options.Checker selects Definition 2.
	DistinctChecker = core.DistinctChecker
	// Benchmark is one circuit of the embedded benchmark suite.
	Benchmark = bench.Benchmark
)

// Gate kinds, re-exported for Builder users.
const (
	And  = circuit.And
	Nand = circuit.Nand
	Or   = circuit.Or
	Nor  = circuit.Nor
	Xor  = circuit.Xor
	Xnor = circuit.Xnor
	Not  = circuit.Not
	Buf  = circuit.Buf
)

// Unbounded is the nmin value of faults no n-detection test set is ever
// guaranteed to detect.
const Unbounded = core.Unbounded

// NewBuilder starts a new circuit description.
func NewBuilder(name string) *Builder { return circuit.NewBuilder(name) }

// ParseNetlist reads a circuit in the text netlist format (see
// internal/circuit's format documentation: circuit/input/output/gate/const
// statements).
func ParseNetlist(src string) (*Circuit, error) { return circuit.ParseString(src) }

// ReadNetlist reads a circuit from a reader.
func ReadNetlist(r io.Reader) (*Circuit, error) { return circuit.Parse(r) }

// ParseBench reads a circuit in the ISCAS-85/89 .bench format
// (INPUT/OUTPUT declarations and `out = GATE(in, ...)` statements).
// ISCAS-89 DFFs are stripped to the full-scan combinational view: each
// flip-flop's output becomes a pseudo primary input and its data signal a
// pseudo primary output. The name is the circuit name to record (.bench
// files carry none).
func ParseBench(name, src string) (*Circuit, error) { return circuit.ParseBenchString(name, src) }

// ReadBench reads a .bench circuit from a reader.
func ReadBench(name string, r io.Reader) (*Circuit, error) { return circuit.ParseBench(name, r) }

// EmbeddedBenchNames lists the embedded ISCAS .bench samples (c17, s27,
// and the 64-input partition workload w64).
func EmbeddedBenchNames() []string { return circuit.EmbeddedBenchNames() }

// EmbeddedBenchCircuit returns one embedded .bench sample by name. Each
// sample is parsed once per process and the circuit is shared: treat it as
// read-only.
func EmbeddedBenchCircuit(name string) (*Circuit, error) { return circuit.EmbeddedBench(name) }

// ParseKISS2 reads a KISS2 finite-state machine.
func ParseKISS2(name, src string) (*STG, error) { return kiss.ParseString(name, src) }

// ReadKISS2 reads a KISS2 machine from a reader.
func ReadKISS2(name string, r io.Reader) (*STG, error) { return kiss.Parse(name, r) }

// Synthesize builds the combinational next-state/output logic of a machine.
func Synthesize(m *STG, opts SynthOptions) (*SynthResult, error) {
	return synth.Synthesize(m, opts)
}

// Analyze builds a circuit's analysis universe under a fault model ("",
// DefaultFaultModel, selects the paper's setup: F = collapsed stuck-at
// faults, G = detectable non-feedback four-way bridging faults between
// outputs of multi-input gates; see FaultModels). All T-sets are computed
// by streaming the exhaustive input space in word blocks through the
// compiled circuit. Circuits are accepted up to MaxExhaustiveInputs
// inputs, subject to the result-memory budget check described in
// DESIGN.md §9.
//
// For the "transition" model the universe indexes ordered two-pattern
// tests (v1, v2) ∈ U×U, so Universe.Size is |U|²; Definition 2 requires
// single stuck-at targets and is unavailable under models without them.
// opts sets the worker budget and an optional progress hook; the universe
// built is identical for every worker count (DESIGN.md §5).
func Analyze(c *Circuit, model string, opts AnalyzeOptions) (*CircuitUniverse, error) {
	m, err := fault.Resolve(model)
	if err != nil {
		return nil, err
	}
	return core.BuildUniverse(c, m, opts)
}

// FaultModels lists the fault-model IDs in sorted order: the default
// model — the paper's setup, DefaultFaultModel — plus "transition"
// (two-pattern transition faults) and "msa2" (pairwise double stuck-at
// faults).
func FaultModels() []string { return fault.ModelIDs() }

// DefaultFaultModel is the default model ID: collapsed single stuck-at
// targets with four-way bridging untargeted faults, the paper's
// experimental setup.
const DefaultFaultModel = fault.DefaultModelID

// StuckAtCollapseRatio reports the fault-collapsing ratio for a circuit:
// collapsed stuck-at faults over the uncollapsed 2·(number of lines)
// total. The paper's Table 2 reports |F| after collapsing; this exposes
// how much the equivalence-class collapse shrank it.
func StuckAtCollapseRatio(c *Circuit) float64 { return fault.CollapseRatio(c) }

// WorstCase runs the paper's Section 2 analysis: nmin(g) for every
// untargeted fault, with one worker per CPU.
func WorstCase(u *Universe) *WorstCaseResult { return core.WorstCaseWorkers(u, 0) }

// NMin computes nmin(g) for a single fault against a target set.
func NMin(g Fault, targets []Fault) int { return core.NMin(g, targets) }

// NMinPair computes nmin(g,f) = N(f) − M(g,f) + 1.
func NMinPair(g, f Fault) int { return core.NMinPair(g, f) }

// ContributingFaults lists F(g) with per-fault nmin(g,f) — the paper's
// Table 1 for one untargeted fault.
func ContributingFaults(g Fault, targets []Fault) []PairContribution {
	return core.ContributingFaults(g, targets)
}

// Procedure1 constructs K random n-detection test sets for n = 1..NMax and
// records which untargeted faults each detects (the paper's Section 3).
func Procedure1(u *Universe, opts Procedure1Options) (*Procedure1Result, error) {
	return core.Procedure1(u, opts)
}

// NewDef2Checker builds Definition 2's similarity oracle for a circuit
// universe, backed by memoized 3-valued fault simulation. Passed as
// Procedure1Options.Checker, it selects Definition 2.
func NewDef2Checker(u *CircuitUniverse) DistinctChecker {
	return core.NewCircuitCheckerFor(u)
}

// NewTestSet returns an empty test set over a universe of the given size.
func NewTestSet(size int) *TestSet { return core.NewTestSet(size) }

// Benchmarks returns the embedded benchmark suite (surrogates for the
// paper's MCNC circuits; see DESIGN.md §4).
func Benchmarks() []*Benchmark { return bench.All() }

// BenchmarkByName looks up one benchmark.
func BenchmarkByName(name string) (*Benchmark, bool) { return bench.ByName(name) }

// DefaultSynthOptions returns the synthesis options the experiment suite
// uses (multi-level netlists, fanin cap 4).
func DefaultSynthOptions() SynthOptions { return bench.DefaultOptions() }

// LoadBenchmark synthesizes a benchmark with the default options and builds
// its fault universe — the one-call path from a circuit name to both
// analyses.
func LoadBenchmark(name string) (*CircuitUniverse, error) {
	b, ok := bench.ByName(name)
	if !ok {
		return nil, &UnknownBenchmarkError{Name: name}
	}
	r, err := b.SynthesizeDefault()
	if err != nil {
		return nil, err
	}
	return core.BuildUniverse(r.Circuit, fault.Default(), AnalyzeOptions{})
}

// GenerateCompact builds a compact n-detection test set deterministically:
// greedy deficit-driven selection followed by reverse-order compaction.
// Procedure1 studies arbitrary n-detection test sets; GenerateCompact
// produces the small ones a test generator would actually emit.
func GenerateCompact(u *Universe, n int) *TestSet {
	return testgen.GreedyCompact(u, n)
}

// TestSetLowerBound returns a lower bound on the size of any n-detection
// test set for the universe.
func TestSetLowerBound(u *Universe, n int) int {
	return testgen.LowerBound(u, n)
}

// UntargetedCoverage counts how many of the given untargeted faults the
// test set detects.
func UntargetedCoverage(ts *TestSet, untargeted []Fault) int {
	return testgen.Coverage(ts, untargeted)
}

// Part is one subcircuit produced by SplitCircuit.
type Part = partition.Part

// PartitionOptions controls SplitCircuit and AnalyzePartitioned.
type PartitionOptions = partition.Options

// PartitionedResult is the outcome of AnalyzePartitioned: the partitioned
// section of the analysis document `ndetect -partition -json` and ndetectd
// emit, per-part summaries in Split order plus the merged nmin table.
type PartitionedResult = report.Partitioned

// AnalyzePartitioned runs the paper's Section 4 workaround end to end for
// circuits too wide for exhaustive analysis: Split the canonical circuit
// into ≤ MaxInputs-input output cones, exhaustive worst-case analysis per
// part across a bounded worker pool (the budget is split between parts and
// their inner simulation, DESIGN.md §5), and MergeNMin over the per-part
// verdicts. Merged rows are sorted by fault name, and unbounded faults
// read −1 (report.UnboundedJSON), as in the document. The result is
// identical for every worker count.
func AnalyzePartitioned(c *Circuit, opts PartitionOptions, workers int) (*PartitionedResult, error) {
	doc, err := exp.AnalyzeCircuit(c, exp.AnalysisRequest{
		Kind: exp.PartitionedAnalysis, MaxInputs: opts.MaxInputs, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	return doc.Partitioned, nil
}

// SplitCircuit partitions a circuit into output-cone subcircuits whose
// input counts stay within the limit, the paper's Section 4 workaround for
// designs too large for exhaustive analysis. Each part can be passed to
// Analyze independently; MergePartNMin combines per-part worst-case results.
func SplitCircuit(c *Circuit, opts PartitionOptions) ([]*Part, error) {
	return partition.Split(c, opts)
}

// MergePartNMin merges per-part nmin maps (keyed by fault name): the
// smallest value per fault wins.
func MergePartNMin(perPart []map[string]int) map[string]int {
	return partition.MergeNMin(perPart)
}

// UnknownBenchmarkError reports a LoadBenchmark miss.
type UnknownBenchmarkError struct{ Name string }

func (e *UnknownBenchmarkError) Error() string {
	return "ndetect: unknown benchmark " + e.Name
}
