// Command ndetect analyses one circuit: it builds the paper's fault
// universes (collapsed stuck-at targets, four-way bridging untargeted
// faults), runs the worst-case nmin analysis and optionally the
// average-case Procedure 1 estimate, and prints a summary.
//
// Every run goes through the one analysis driver behind ndetectd
// (exp.AnalyzeCircuit) and yields one analysis document
// (internal/report.Analysis); the text report is a rendering of that
// document, so it shows exactly the numbers -json prints.
//
// The circuit comes from one of:
//
//	-bench NAME     an embedded benchmark: an FSM surrogate or an ISCAS
//	                .bench sample like c17 or w64 (see -list)
//	-netlist FILE   a circuit file; -format selects the syntax:
//	                "net" (default, circuit/input/output/gate statements)
//	                or "bench" (ISCAS-85/89 .bench, DFFs stripped)
//	-kiss2 FILE     a KISS2 FSM, synthesized first
//
// Circuits too wide for exhaustive analysis (> sim.MaxInputs inputs) can
// be analysed with -partition MAXINPUTS, which splits the circuit into
// output cones of at most MAXINPUTS inputs, analyses every part, and
// merges the per-part worst-case verdicts (the paper's Section 4
// workaround; see DESIGN.md §8 for what the merged numbers mean).
//
// Kernel work is measurable without editing code: -cpuprofile and
// -memprofile write pprof profiles of the run (the heap profile of a
// streaming analysis shows per-fault result bitsets, never per-node
// universes), and -trace prints a stage-timing table to stderr — stdout
// stays byte-identical with or without it (DESIGN.md §14).
//
// -json prints the analysis document itself instead of its text rendering
// — the same encoder the ndetectd server uses, so CLI and daemon outputs
// diff clean for the same circuit and options.
//
// -sweep SPEC runs a whole grid of result-identity option variants over
// the circuit with one shared exhaustive universe (DESIGN.md §11),
// printing each variant's -json document in grid order — each
// byte-identical to the one-shot run with the same options. The spec is
// semicolon-separated key=values with comma lists and lo..hi ranges,
// e.g. "nmax=10;k=1000;seed=1..5;def=1,2".
//
// -store-dir DIR makes runs warm-startable, text, -json and -sweep alike:
// the exhaustive universe (T-sets + fault tables) is loaded from / saved
// to the same persistent artifact store ndetectd uses, so repeated runs
// over one circuit skip simulation and T-set construction. Partitioned
// runs build their per-part universes afresh.
//
// -fault-model ID swaps the paper's stuck-at + bridging setup for one of
// the other two fault models (DESIGN.md §12): "transition" analyses
// gross-delay transition faults over two-pattern tests (the universe
// indexes ordered vector pairs), "msa2" analyses pairwise double stuck-at
// faults. The model is part of the result identity, so -json documents,
// job IDs and universe artifacts are all model-tagged.
//
// Examples:
//
//	ndetect -bench bbara
//	ndetect -bench bbtas -fault-model transition
//	ndetect -bench bbtas -fault-model msa2 -json
//	ndetect -bench bbtas -json
//	ndetect -bench dvram -hist 100
//	ndetect -netlist adder.net -avg -k 500
//	ndetect -netlist c880.bench -format bench -partition 16
//	ndetect -bench w64 -partition 16 -workers 8
//	ndetect -bench dvram -cpuprofile cpu.pprof -memprofile mem.pprof
//	ndetect -bench bbtas -sweep "nmax=10;k=200;seed=1..5" -store-dir ./artifacts
//	ndetect -bench bbtas -avg -k 200 -store-dir ./artifacts
//	ndetect -kiss2 machine.kiss2 -avg
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/kiss"
	"ndetect/internal/obs"
	"ndetect/internal/store"
	"ndetect/internal/synth"
)

func main() {
	var (
		benchF   = flag.String("bench", "", "embedded benchmark name")
		netF     = flag.String("netlist", "", "netlist file")
		formatF  = flag.String("format", "net", `syntax of the -netlist file: "net" or "bench" (ISCAS .bench)`)
		kissF    = flag.String("kiss2", "", "KISS2 FSM file (synthesized before analysis)")
		listF    = flag.Bool("list", false, "list embedded benchmarks and exit")
		avgF     = flag.Bool("avg", false, "also run the average-case analysis (Procedure 1)")
		def2F    = flag.Bool("def2", false, "use Definition 2 in the average-case analysis")
		kF       = flag.Int("k", 1000, "test sets per n for -avg")
		nmaxF    = flag.Int("nmax", 10, "deepest n-detection level")
		seedF    = flag.Int64("seed", 1, "RNG seed for -avg")
		histF    = flag.Int("hist", 0, "print the nmin histogram from this cutoff (0 = off)")
		worstF   = flag.Int("worst", 10, "show the hardest N untargeted faults")
		partF    = flag.Int("partition", 0, "partition into ≤N-input cones before analysis (0 = off)")
		modelF   = flag.String("fault-model", "", `fault model for the analysis: "" = the default (collapsed stuck-at targets, four-way bridging untargeted faults), "transition" (two-pattern delay faults) or "msa2" (pairwise double stuck-at); part of the result identity (DESIGN.md §12)`)
		jsonF    = flag.Bool("json", false, "emit the machine-readable analysis document instead of text (byte-identical to the ndetectd server's result for the same circuit and options)")
		sweepF   = flag.String("sweep", "", `run a grid of option variants over one shared universe and print each variant's JSON document, e.g. "nmax=10;k=1000;seed=1..5;def=1,2" (DESIGN.md §11)`)
		storeF   = flag.String("store-dir", "", "persistent artifact store for universe reuse across runs (same layout as ndetectd's; DESIGN.md §11)")
		ge11F    = flag.Int("ge11", 0, "with -avg: cap the analysed nmin subset by even sampling (0 = no cap; DESIGN.md §4)")
		twoLevel = flag.Bool("two-level", false, "use two-level PLA synthesis for -kiss2/-bench")
		workersF = flag.Int("workers", 0, "worker pool size for simulation, T-sets and -avg (0 = one per CPU, 1 = serial)")
		traceF   = flag.Bool("trace", false, "print a stage-timing table to stderr after the analysis (stdout bytes are unchanged; DESIGN.md §14)")
		cpuprofF = flag.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
		memprofF = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	// Profiles are flushed both on normal returns (defer) and in fail()
	// before os.Exit, so a run stopped by e.g. the memory-budget check
	// still yields readable pprof data.
	if *cpuprofF != "" {
		f, err := os.Create(*cpuprofF)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}
	flushedProfiles := false
	flushProfiles = func() {
		if flushedProfiles {
			return // also breaks the fail() recursion from writeMemProfile
		}
		flushedProfiles = true
		if *cpuprofF != "" {
			pprof.StopCPUProfile()
		}
		if *memprofF != "" {
			writeMemProfile(*memprofF)
		}
	}
	defer flushProfiles()

	if *listF {
		for _, b := range bench.All() {
			src := "synthetic"
			if b.Handwritten {
				src = "handwritten"
			}
			fmt.Printf("%-10s %2d in, %2d out, %2d states (%s)\n", b.Name, b.Inputs, b.Outputs, b.States, src)
		}
		for _, name := range circuit.EmbeddedBenchNames() {
			c, err := circuit.EmbeddedBench(name)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-10s %2d in, %2d out (ISCAS .bench sample)\n", name, c.NumInputs(), c.NumOutputs())
		}
		return
	}

	c, err := loadCircuit(*benchF, *netF, *kissF, *formatF, *twoLevel)
	if err != nil {
		fail(err)
	}

	// -trace records stage spans and prints a timing table to stderr when
	// the analysis returns. It observes through the same hooks the server
	// uses (exp.TraceSink + the Progress stream), so stdout — text report
	// or JSON document alike — stays byte-identical with or without it.
	var rec *obs.Recorder
	if *traceF {
		if *sweepF != "" {
			fail(fmt.Errorf("-trace does not combine with -sweep (per-variant traces would interleave); trace the variants one-shot instead"))
		}
		rec = obs.NewRecorder()
		defer func() { fmt.Fprint(os.Stderr, obs.FormatTable(rec.Finish())) }()
	}

	// The artifact store serves every run that builds an exhaustive
	// universe: text, -json and -sweep alike analyze the canonical circuit,
	// which is what universe artifacts are keyed and node-indexed by.
	var universes exp.UniverseSource
	if *storeF != "" {
		st, err := store.Open(*storeF, store.Options{})
		if err != nil {
			fail(err)
		}
		defer st.Close()
		universes = st
	}

	if *sweepF != "" {
		variants, err := exp.ParseSweep(*sweepF)
		if err != nil {
			fail(err)
		}
		if *modelF != "" {
			// The flag sets one model for the whole grid; a grid that also
			// crosses models must say so in the spec alone.
			for _, field := range strings.Split(*sweepF, ";") {
				if key, _, _ := strings.Cut(strings.TrimSpace(field), "="); strings.TrimSpace(key) == "model" {
					fail(fmt.Errorf("-fault-model conflicts with a model= axis in -sweep; use one or the other"))
				}
			}
			for i := range variants {
				variants[i].FaultModel = *modelF
				if err := variants[i].Normalize(); err != nil {
					fail(err)
				}
			}
		}
		docs, err := exp.Sweep(c, variants, exp.SweepOptions{Workers: *workersF, Universes: universes})
		if err != nil {
			fail(err)
		}
		for _, doc := range docs {
			if _, err := os.Stdout.Write(doc.Encode()); err != nil {
				fail(err)
			}
		}
		return
	}

	// One shared driver behind text, -json and the ndetectd server: same
	// circuit + options → the same document (DESIGN.md §10), which -json
	// prints as is and the text report renders. AnalyzeCircuit normalizes
	// the request first, so an unknown model, -def2 without stuck-at
	// targets or a model with -partition fails before any simulation.
	req := exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis, FaultModel: *modelF, Workers: *workersF, Universes: universes}
	if rec != nil {
		req.Trace = rec
		req.Progress = rec.Progress
	}
	switch {
	case *partF > 0:
		req.Kind = exp.PartitionedAnalysis
		req.MaxInputs = *partF
	case *avgF:
		req.Kind = exp.AverageAnalysis
		req.NMax = *nmaxF
		req.K = *kF
		req.Seed = *seedF
		req.Ge11Limit = *ge11F
		if *def2F {
			req.Definition = 2
		}
	}
	doc, err := exp.AnalyzeCircuit(c, req)
	if err != nil {
		fail(err)
	}
	// The output stage gets its own span, as the daemon's encode does, so
	// -trace accounts for it: "encode" for -json, "render" for text.
	end := func() {}
	if rec != nil {
		stage := "render"
		if *jsonF {
			stage = "encode"
		}
		end = rec.Begin(stage)
	}
	var out []byte
	if *jsonF {
		out = doc.Encode()
	} else if out, err = renderText(doc, *worstF, *histF); err != nil {
		fail(err)
	}
	end()
	if _, err := os.Stdout.Write(out); err != nil {
		fail(err)
	}
}

func loadCircuit(benchName, netFile, kissFile, format string, twoLevel bool) (*circuit.Circuit, error) {
	sources := 0
	for _, s := range []string{benchName, netFile, kissFile} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("specify exactly one of -bench, -netlist, -kiss2 (see -h)")
	}
	switch {
	case benchName != "":
		b, ok := bench.ByName(benchName)
		if !ok || !twoLevel {
			return bench.CircuitByName(benchName)
		}
		opts := bench.DefaultOptions()
		opts.MultiLevel = false
		r, err := b.Synthesize(opts)
		if err != nil {
			return nil, err
		}
		return r.Circuit, nil
	case netFile != "":
		f, err := os.Open(netFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch format {
		case "net", "":
			return circuit.Parse(f)
		case "bench":
			return circuit.ParseBench(strings.TrimSuffix(filepath.Base(netFile), ".bench"), f)
		default:
			return nil, fmt.Errorf("unknown -format %q (want net or bench)", format)
		}
	default:
		f, err := os.Open(kissFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := kiss.Parse(kissFile, f)
		if err != nil {
			return nil, err
		}
		opts := synth.Options{MultiLevel: !twoLevel, MaxFanin: 4}
		r, err := synth.Synthesize(m, opts)
		if err != nil {
			return nil, err
		}
		return r.Circuit, nil
	}
}

// flushProfiles stops the CPU profile and writes the heap profile at most
// once; fail() invokes it so profiles survive error exits.
var flushProfiles func()

// writeMemProfile records the live heap at exit — with the streaming engine
// the profile should show per-fault result bitsets and block scratch, never
// per-node universes.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ndetect:", err)
	if flushProfiles != nil {
		flushProfiles()
	}
	os.Exit(1)
}
