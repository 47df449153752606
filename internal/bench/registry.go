package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ndetect/internal/circuit"
	"ndetect/internal/kiss"
	"ndetect/internal/synth"
)

// Benchmark is one circuit of the evaluation suite.
type Benchmark struct {
	Name string
	// Inputs/Outputs/States is the published interface of the MCNC
	// namesake (primary inputs, primary outputs, symbolic states).
	Inputs, Outputs, States int
	// Handwritten marks machines written by hand (semantic surrogates);
	// the rest come from the seeded synthetic generator.
	Handwritten bool

	src  string    // KISS2 source for handwritten machines
	gen  genParams // generator parameters otherwise
	seed int64

	once sync.Once
	stg  *kiss.STG
	err  error

	synthOnce sync.Once
	synthRes  *synth.Result
	synthErr  error
}

// STG parses (or generates) the machine, memoized.
func (b *Benchmark) STG() (*kiss.STG, error) {
	b.once.Do(func() {
		if b.Handwritten {
			b.stg, b.err = kiss.ParseString(b.Name, b.src)
		} else {
			b.stg, b.err = generate(b.Name, b.seed, b.gen)
		}
		if b.err == nil {
			if err := b.stg.CheckDeterministic(); err != nil {
				b.err = err
			}
		}
	})
	return b.stg, b.err
}

// DefaultOptions returns the synthesis options the experiment suite uses:
// multi-level netlists with fanin capped at 4, the character of the paper's
// benchmark circuits (two-level mapping remains available for the ablation
// bench).
func DefaultOptions() synth.Options {
	return synth.Options{MultiLevel: true, MaxFanin: 4}
}

// Synthesize builds the benchmark's combinational logic.
func (b *Benchmark) Synthesize(opts synth.Options) (*synth.Result, error) {
	m, err := b.STG()
	if err != nil {
		return nil, err
	}
	return synth.Synthesize(m, opts)
}

// SynthesizeDefault builds the benchmark's combinational logic with
// DefaultOptions, memoized: every caller shares one *synth.Result per
// benchmark, so the result and everything it points to (the circuit, the
// STG and the encoding) are read-only. A caller that needs to change the
// circuit rebuilds it, as circuit.Canonicalize does.
func (b *Benchmark) SynthesizeDefault() (*synth.Result, error) {
	b.synthOnce.Do(func() {
		b.synthRes, b.synthErr = b.Synthesize(DefaultOptions())
	})
	return b.synthRes, b.synthErr
}

// TotalInputs returns primary inputs + minimal binary state bits: the input
// count of the synthesized combinational circuit (and so log2|U|).
func (b *Benchmark) TotalInputs() int {
	m, err := b.STG()
	if err != nil {
		return -1
	}
	return m.NumInputs + m.StateBits()
}

// seedFor derives a stable per-name seed.
func seedFor(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h)
}

var (
	registryOnce sync.Once
	registry     map[string]*Benchmark
	orderedNames []string
)

func hw(name string, in, out, states int, src string) *Benchmark {
	return &Benchmark{Name: name, Inputs: in, Outputs: out, States: states, Handwritten: true, src: src}
}

func gen(name string, in, out, states int, p genParams) *Benchmark {
	p.Inputs, p.Outputs, p.States = in, out, states
	return &Benchmark{Name: name, Inputs: in, Outputs: out, States: states, gen: p, seed: seedFor(name)}
}

// Generator parameter families. The "tail" family uses a high drop
// probability: many unspecified (state, input) entries synthesize to
// constant-0 rows, producing the redundant logic behind the heavy nmin
// tails the paper reports for its last seven circuits.
var (
	normalGen = genParams{SplitProb: 0.8, DropProb: 0.12, OutputDashProb: 0.20}
	denseGen  = genParams{SplitProb: 1.2, DropProb: 0.08, OutputDashProb: 0.15}
	tailGen   = genParams{SplitProb: 1.2, DropProb: 0.45, OutputDashProb: 0.30}
)

func buildRegistry() {
	list := []*Benchmark{
		// Handwritten semantic surrogates (small classical machines).
		hw("lion", 2, 1, 4, lionHW),
		hw("train4", 2, 1, 4, train4HW),
		hw("bbtas", 2, 2, 6, bbtasHW),
		hw("dk27", 1, 2, 7, dk27HW),
		hw("mc", 3, 5, 4, mcHW),
		hw("tav", 4, 4, 4, tavHW),
		hw("s8", 4, 1, 5, s8HW),
		hw("firstex", 3, 2, 6, firstexHW),
		hw("lion9", 2, 1, 9, mkUpDownCounter(9)),
		hw("train11", 2, 1, 11, mkUpDownCounter(11)),
		hw("modulo12", 1, 1, 12, mkModCounter(12)),
		hw("donfile", 2, 1, 24, mkJohnsonRing(24, 1)),

		// Seeded synthetic surrogates for the remaining MCNC machines.
		gen("ex5", 2, 2, 9, normalGen),
		gen("dk15", 3, 5, 4, denseGen),
		gen("dk512", 1, 3, 15, normalGen),
		gen("dk14", 3, 5, 7, denseGen),
		gen("dk17", 2, 3, 8, normalGen),
		gen("dk16", 2, 3, 27, denseGen),
		gen("ex7", 2, 2, 10, normalGen),
		gen("beecount", 3, 4, 7, normalGen),
		gen("ex2", 2, 2, 19, denseGen),
		gen("ex3", 2, 2, 10, normalGen),
		gen("ex6", 5, 8, 8, normalGen),
		gen("mark1", 5, 16, 15, normalGen),
		gen("bbara", 4, 2, 10, normalGen),
		gen("ex4", 6, 9, 14, normalGen),
		gen("keyb", 7, 2, 19, denseGen),
		gen("opus", 5, 6, 10, normalGen),
		gen("bbsse", 7, 7, 16, normalGen),
		gen("cse", 7, 7, 16, denseGen),

		// The paper's four non-public industrial-style machines and s1a
		// (the redundant version of s1): tail-family surrogates.
		gen("dvram", 7, 6, 20, tailGen),
		gen("fetch", 6, 5, 16, tailGen),
		gen("log", 5, 4, 12, tailGen),
		gen("rie", 7, 5, 20, tailGen),
		gen("s1a", 8, 6, 20, tailGen),
	}
	registry = make(map[string]*Benchmark, len(list))
	for _, b := range list {
		if _, dup := registry[b.Name]; dup {
			panic(fmt.Sprintf("bench: duplicate benchmark %q", b.Name))
		}
		registry[b.Name] = b
		orderedNames = append(orderedNames, b.Name)
	}
}

// All returns every benchmark in the paper's Table 2 ordering groups
// (registration order here).
func All() []*Benchmark {
	registryOnce.Do(buildRegistry)
	out := make([]*Benchmark, 0, len(registry))
	for _, n := range orderedNames {
		out = append(out, registry[n])
	}
	return out
}

// Names returns all benchmark names, sorted.
func Names() []string {
	registryOnce.Do(buildRegistry)
	out := append([]string(nil), orderedNames...)
	sort.Strings(out)
	return out
}

// ByName looks a benchmark up.
func ByName(name string) (*Benchmark, bool) {
	registryOnce.Do(buildRegistry)
	b, ok := registry[name]
	return b, ok
}

// CircuitByName resolves a circuit by name for every by-name caller: a
// suite benchmark's default synthesis (SynthesizeDefault), else the
// embedded .bench sample of that name (circuit.EmbeddedBench), else an
// error listing both name sets. Either circuit is memoized and shared by
// every caller in the process, so it is read-only.
func CircuitByName(name string) (*circuit.Circuit, error) {
	if b, ok := ByName(name); ok {
		r, err := b.SynthesizeDefault()
		if err != nil {
			return nil, err
		}
		return r.Circuit, nil
	}
	if c, err := circuit.EmbeddedBench(name); err == nil {
		return c, nil
	}
	return nil, fmt.Errorf("unknown benchmark %q (known: %s %s)", name,
		strings.Join(Names(), " "), strings.Join(circuit.EmbeddedBenchNames(), " "))
}
