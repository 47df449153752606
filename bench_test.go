package ndetect

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper, plus the ablation benches DESIGN.md §6 calls out. Each table bench
// runs exp.RunAll, the one code path cmd/paper uses, with only the
// average-case pass its table needs, on a trimmed circuit list / K so
// `go test -bench=.` stays laptop-sized; cmd/paper runs the full sweep
// (`-k5 10000 -k6 1000 -ge11cap 0` for paper-scale statistics).

import (
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/bitset"
	"ndetect/internal/encode"
	"ndetect/internal/engine"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	core "ndetect/internal/ndetect"
	"ndetect/internal/partition"
	"ndetect/internal/sim"
	"ndetect/internal/synth"
)

// ---- Table and figure benches ------------------------------------------

// BenchmarkTable2 regenerates Table 2 rows (worst-case coverage CDF) for a
// representative circuit spread: tiny (lion), mid (bbara), large-tail
// (dvram).
func BenchmarkTable2(b *testing.B) {
	cfg := exp.Config{Circuits: []string{"lion", "bbara", "dvram"}}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunAll(cfg, "", false, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Table2) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 rows (worst-case tail counts) for two
// tail circuits.
func BenchmarkTable3(b *testing.B) {
	cfg := exp.Config{Circuits: []string{"log", "fetch"}}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(cfg, "", false, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the Figure 2 histogram for dvram.
func BenchmarkFigure2(b *testing.B) {
	cfg := exp.Config{Circuits: []string{"dvram"}}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunAll(cfg, "dvram", false, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Figure2 == nil {
			b.Fatal("no figure")
		}
	}
}

// BenchmarkTable5 regenerates a Table 5 row (average case, Definition 1) at
// reduced K.
func BenchmarkTable5(b *testing.B) {
	cfg := exp.Config{Circuits: []string{"bbara", "log"}, K5: 100, Ge11Limit: 100}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(cfg, "", true, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates a Table 6 row (Definition 1 vs 2) at reduced K.
func BenchmarkTable6(b *testing.B) {
	cfg := exp.Config{Circuits: []string{"bbara"}, K6: 50, Ge11Limit: 50}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(cfg, "", false, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// runAllBenchConfig is the circuit spread the RunAll ablation pair below
// shares: enough circuits that the circuit-level fan-out has work to
// balance, worst-case analysis only (Tables 2+3) so the bench isolates the
// engine rather than Procedure 1's own worker pool.
func runAllBenchConfig() exp.Config {
	return exp.Config{Circuits: []string{"lion", "train4", "bbara", "beecount", "log", "fetch"}}
}

// BenchmarkRunAllSerial pins the single-worker reproduction pass — the
// pre-parallel-engine baseline (Workers=1 is bit-for-bit the old serial
// path).
func BenchmarkRunAllSerial(b *testing.B) {
	cfg := runAllBenchConfig()
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(cfg, "", false, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllParallel runs the same pass with one worker per CPU. The
// worker budget is split across levels (see sim.SplitWorkers): with ≤ 6
// cores this measures the circuit-level fan-out (inner pools get 1 worker);
// beyond that the fault-level and word-shard pools engage too. The ratio to
// BenchmarkRunAllSerial is the engine's multi-core speedup; the outputs are
// identical (see exp.TestRunAllWorkersDeterministic).
func BenchmarkRunAllParallel(b *testing.B) {
	cfg := runAllBenchConfig() // Workers 0 = GOMAXPROCS
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(cfg, "", false, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionedAnalysis measures the end-to-end large-circuit
// pipeline (Split → per-part exhaustive analysis → MergeNMin) on the
// embedded 64-input .bench sample — the workload class the exhaustive
// engine cannot touch at all (2^64 vectors). One worker per CPU; the
// budget is split between concurrent parts and their inner simulation.
func BenchmarkPartitionedAnalysis(b *testing.B) {
	c, err := EmbeddedBenchCircuit("w64")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := AnalyzePartitioned(c, PartitionOptions{MaxInputs: 16}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Merged) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkSweepSharedUniverse measures the sweep engine's point: S
// option variants over one circuit with the exhaustive universe
// constructed once (exp.Sweep) versus recomputed per variant (one
// exp.AnalyzeCircuit each). The documents are byte-identical either way
// (exp.TestSweepSharesUniverseAndMatchesColdRuns); the ratio is what the
// universe tier of the artifact store saves every warm request
// (DESIGN.md §11).
func BenchmarkSweepSharedUniverse(b *testing.B) {
	c := mustCircuit(b, "bbara")
	variants, err := exp.ParseSweep("analysis=average;nmax=10;k=20;seed=1..4")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			docs, err := exp.Sweep(c, variants, exp.SweepOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(docs) != len(variants) {
				b.Fatal("variant count mismatch")
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range variants {
				if _, err := exp.AnalyzeCircuit(c, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWorstCaseExample runs the worst-case analysis on the paper's
// published Table 1 detection sets.
func BenchmarkWorstCaseExample(b *testing.B) {
	mk := func(members ...int) *bitset.Set { return bitset.FromMembers(16, members...) }
	u := &Universe{
		Size: 16,
		Targets: []Fault{
			{Name: "1/1", T: mk(4, 5, 6, 7)},
			{Name: "2/0", T: mk(6, 7, 12, 13, 14, 15)},
			{Name: "3/0", T: mk(2, 6, 7, 10, 14, 15)},
			{Name: "8/0", T: mk(2, 6, 10, 14)},
			{Name: "9/1", T: mk(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)},
			{Name: "10/0", T: mk(6, 7, 14, 15)},
			{Name: "11/0", T: mk(1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)},
		},
		Untargeted: []Fault{{Name: "(9,0,10,1)", T: mk(6, 7)}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc := WorstCase(u)
		if wc.NMin[0] != 3 {
			b.Fatalf("nmin = %d, want 3", wc.NMin[0])
		}
	}
}

// BenchmarkWorstCase times the Section 2 worst-case stage alone on two
// heavy-tail surrogates, with the universe built before the timer starts.
func BenchmarkWorstCase(b *testing.B) {
	for _, name := range []string{"dvram", "keyb"} {
		b.Run(name, func(b *testing.B) {
			u, err := LoadBenchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if wc := WorstCase(&u.Universe); len(wc.NMin) != len(u.Untargeted) {
					b.Fatal("wrong result length")
				}
			}
		})
	}
}

// BenchmarkEncode times the output stage's document encoding alone on the
// worst-case documents of two heavy-tail surrogates (one row per
// untargeted fault), with the document built before the timer starts.
func BenchmarkEncode(b *testing.B) {
	for _, name := range []string{"dvram", "keyb"} {
		b.Run(name, func(b *testing.B) {
			doc, err := exp.AnalyzeCircuit(mustCircuit(b, name), exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(doc.Encode()) == 0 {
					b.Fatal("empty document")
				}
			}
		})
	}
}

// BenchmarkBuildUniverse times the default model's whole universe
// construction (simulation, target T-sets, the factored bridge universe
// and assembly) on two heavy-tail surrogates, with the circuit
// synthesized before the timer starts.
func BenchmarkBuildUniverse(b *testing.B) {
	for _, name := range []string{"dvram", "keyb"} {
		b.Run(name, func(b *testing.B) {
			c := mustCircuit(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildUniverse(c, fault.Default(), core.AnalyzeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssembleUniverse times binding fault tables and T-sets into a
// universe, which names every fault, on two heavy-tail surrogates; the
// tables and the builder's T-sets are built before the timer starts. The
// artifact store's universe decode ends in the same call.
func BenchmarkAssembleUniverse(b *testing.B) {
	for _, name := range []string{"dvram", "keyb"} {
		b.Run(name, func(b *testing.B) {
			c, m := mustCircuit(b, name), fault.Default()
			e, err := sim.RunWorkers(c, 0)
			if err != nil {
				b.Fatal(err)
			}
			build, err := sim.ModelTSetsFor(m.ID())
			if err != nil {
				b.Fatal(err)
			}
			targets := fault.EnumerateSet(m, c, fault.TargetSet)
			ts, err := build(e, targets, fault.EnumerateSet(m, c, fault.UntargetedSet), func(string) {})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AssembleUniverse(c, m, targets, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablation benches (DESIGN.md §6) -------------------------------------

func mustCircuit(b *testing.B, name string) *Circuit {
	b.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	r, err := bm.SynthesizeDefault()
	if err != nil {
		b.Fatal(err)
	}
	return r.Circuit
}

// BenchmarkEngineCompile measures lowering a circuit into the engine's
// levelized instruction programs: the pinned analysis program plus the
// output-directed program with register reuse.
func BenchmarkEngineCompile(b *testing.B) {
	c := mustCircuit(b, "bbara")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.CompileAll(c)
		engine.Compile(c, nil)
	}
}

// BenchmarkEngineStream measures the streaming T-set kernel end to end —
// compile, then stream U in word blocks accumulating only per-fault result
// bitsets. Two workload classes: "bbara" is a small-universe STG benchmark
// (one block, cone-compile-bound), "w64" is the embedded 64-input .bench
// sample split into exhaustive parts (2^16-vector universes, replay-bound).
// The MB/s metric counts the universe words streamed — one good-machine
// pass plus one propagation pass per fault line — and is what the CI perf
// gate compares against BenchmarkMemBandwidth (see cmd/benchjson -gate).
func BenchmarkEngineStream(b *testing.B) {
	b.Run("bbara", func(b *testing.B) {
		c := mustCircuit(b, "bbara")
		u, err := Analyze(c, "", AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		faults := u.StuckAt()
		lines := map[int]bool{}
		for _, f := range faults {
			lines[f.Node] = true
		}
		nWords := (c.VectorSpaceSize() + 63) / 64
		b.SetBytes(int64((len(lines) + 1) * nWords * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := sim.RunWorkers(c, 0)
			if err != nil {
				b.Fatal(err)
			}
			e.StuckAtTSets(faults)
		}
	})
	b.Run("w64", func(b *testing.B) {
		c, err := EmbeddedBenchCircuit("w64")
		if err != nil {
			b.Fatal(err)
		}
		parts, err := partition.Split(c, partition.Options{MaxInputs: 16})
		if err != nil {
			b.Fatal(err)
		}
		var streamed int64
		faultsOf := make([][]fault.StuckAt, len(parts))
		for pi, p := range parts {
			faultsOf[pi] = fault.AllStuckAt(p.Circuit)
			lines := map[int]bool{}
			for _, f := range faultsOf[pi] {
				lines[f.Node] = true
			}
			nWords := (p.Circuit.VectorSpaceSize() + 63) / 64
			streamed += int64((len(lines) + 1) * nWords * 8)
		}
		b.SetBytes(streamed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for pi, p := range parts {
				e, err := sim.RunWorkers(p.Circuit, 0)
				if err != nil {
					b.Fatal(err)
				}
				e.StuckAtTSets(faultsOf[pi])
			}
		}
	})
}

// BenchmarkMemBandwidth is the memcpy baseline the stream kernel is gated
// against: copying a buffer the size of a w64-class part's streamed state
// is the fastest any universe pass can possibly go, so the EngineStream
// MB/s divided by this MB/s is a machine-independent efficiency ratio —
// which is what the CI perf gate checks (a ratio regression > 20% fails).
func BenchmarkMemBandwidth(b *testing.B) {
	const size = 8 << 20
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

// BenchmarkTransitionTSets measures the transition-model universe build
// end to end: stream the single-vector launch/initialization factors, then
// lift every T-set into the |U|² pair space by outer product. Compare
// against BenchmarkEngineStream on the same circuit for the cost of the
// pair-space lift itself — no pair-space simulation ever runs.
func BenchmarkTransitionTSets(b *testing.B) {
	c := mustCircuit(b, "bbtas")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := Analyze(c, "transition", AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(u.Untargeted) == 0 {
			b.Fatal("no transition faults kept")
		}
	}
}

// BenchmarkExhaustiveNaive measures scalar per-vector simulation, the
// ablation baseline for BenchmarkEngineStream's word-block streaming.
func BenchmarkExhaustiveNaive(b *testing.B) {
	c := mustCircuit(b, "bbara")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.NaiveExhaustive(c)
	}
}

// BenchmarkTSetsViaPropMasks measures T-set extraction alone (cone replay
// shared per line, the production streaming path) against a pre-built
// simulation view, isolating it from compile time.
func BenchmarkTSetsViaPropMasks(b *testing.B) {
	c := mustCircuit(b, "bbara")
	e, err := sim.RunWorkers(c, 0)
	if err != nil {
		b.Fatal(err)
	}
	faults := allStuckAt(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.StuckAtTSets(faults)
	}
}

// BenchmarkTSetsPerFault measures per-fault scalar resimulation (the
// ablation baseline) on a slice of the fault list.
func BenchmarkTSetsPerFault(b *testing.B) {
	c := mustCircuit(b, "bbara")
	faults := allStuckAt(c)
	if len(faults) > 40 {
		faults = faults[:40] // the naive path is ~1000× slower; sample it
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range faults {
			sim.NaiveStuckAtTSet(c, f)
		}
	}
}

func allStuckAt(c *Circuit) []StuckAt {
	u, err := Analyze(c, "", AnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	return u.StuckAt()
}

// BenchmarkProcedure1Def1 measures random test set construction under plain
// detection counting.
func BenchmarkProcedure1Def1(b *testing.B) {
	u, err := LoadBenchmark("bbara")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Procedure1(&u.Universe, Procedure1Options{NMax: 10, K: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcedure1Def2 measures the same construction under Definition 2
// (similarity-filtered counting via 3-valued simulation). Each iteration
// builds its own checker, as every average request does, so the pair memo
// starts cold every time.
func BenchmarkProcedure1Def2(b *testing.B) {
	u, err := LoadBenchmark("bbara")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Procedure1Options{NMax: 10, K: 20, Seed: 1, Definition: Def2, Checker: NewDef2Checker(u)}
		if _, err := Procedure1(&u.Universe, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodings compares synthesis + universe construction across
// state encodings (DESIGN.md §6: encoding shapes the circuit and so the
// nmin distribution).
func BenchmarkEncodings(b *testing.B) {
	bm, _ := bench.ByName("beecount")
	m, err := bm.STG()
	if err != nil {
		b.Fatal(err)
	}
	for _, style := range []string{encode.Binary, encode.Gray, encode.OneHot} {
		b.Run(style, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := synth.Synthesize(m, synth.Options{EncodingStyle: style, MultiLevel: true, MaxFanin: 4})
				if err != nil {
					b.Fatal(err)
				}
				u, err := core.BuildUniverse(r.Circuit, fault.Default(), core.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				core.WorstCaseWorkers(&u.Universe, 0)
			}
		})
	}
}

// BenchmarkTwoLevelVsMultiLevel compares the synthesis styles end to end —
// the ablation behind the multi-level decision (two-level mapping collapses
// nearly every bridge to nmin = 1; see synth/multilevel.go).
func BenchmarkTwoLevelVsMultiLevel(b *testing.B) {
	bm, _ := bench.ByName("bbara")
	m, err := bm.STG()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts synth.Options
	}{
		{"two-level", synth.Options{}},
		{"multi-level", synth.Options{MultiLevel: true, MaxFanin: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := synth.Synthesize(m, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				u, err := core.BuildUniverse(r.Circuit, fault.Default(), core.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				core.WorstCaseWorkers(&u.Universe, 0)
			}
		})
	}
}

// BenchmarkSetSizeGrowth records mean n-detection test set sizes across n
// (the paper's premise that size grows roughly linearly with n).
func BenchmarkSetSizeGrowth(b *testing.B) {
	u, err := LoadBenchmark("opus")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Procedure1(&u.Universe, Procedure1Options{NMax: 10, K: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("mean sizes: n=1 %.1f, n=5 %.1f, n=10 %.1f",
				res.MeanSetSize(1), res.MeanSetSize(5), res.MeanSetSize(10))
		}
	}
}
