package sim

import (
	"math/rand"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// embeddedCircuits returns every embedded circuit with at most maxInputs
// inputs: the synthesized benchmark suite, then the .bench samples.
func embeddedCircuits(t *testing.T, maxInputs int) []*circuit.Circuit {
	t.Helper()
	var out []*circuit.Circuit
	for _, b := range bench.All() {
		if b.TotalInputs() > maxInputs {
			continue
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		out = append(out, r.Circuit)
	}
	for _, name := range circuit.EmbeddedBenchNames() {
		if c := embeddedCircuit(t, name); c.NumInputs() <= maxInputs {
			out = append(out, c)
		}
	}
	return out
}

// buildDefault runs the default model's T-set builder over every
// target and candidate bridge of e's circuit.
func buildDefault(t *testing.T, e *Exhaustive) (targets, bridges []fault.Descriptor, ts *TSets) {
	t.Helper()
	m := fault.Default()
	build, err := ModelTSetsFor(m.ID())
	if err != nil {
		t.Fatal(err)
	}
	targets = fault.EnumerateSet(m, e.Circuit, fault.TargetSet)
	bridges = fault.EnumerateSet(m, e.Circuit, fault.UntargetedSet)
	if ts, err = build(e, targets, bridges, func(string) {}); err != nil {
		t.Fatalf("%s: %v", e.Circuit.Name, err)
	}
	return targets, bridges, ts
}

// sameTSets fails unless two factored builds agree on every kept bridge,
// target set, factor and column.
func sameTSets(t *testing.T, what string, a, b *TSets) {
	t.Helper()
	if len(a.Kept) != len(b.Kept) || len(a.Targets) != len(b.Targets) {
		t.Fatalf("%s: %d kept / %d targets, want %d / %d", what, len(b.Kept), len(b.Targets), len(a.Kept), len(a.Targets))
	}
	for i := range a.Targets {
		if !a.Targets[i].Equal(b.Targets[i]) {
			t.Fatalf("%s: target T-set %d differs", what, i)
		}
	}
	for j := range a.Kept {
		if a.Kept[j] != b.Kept[j] || a.Victim[j] != b.Victim[j] || a.Column[j] != b.Column[j] {
			t.Fatalf("%s: kept bridge %d differs", what, j)
		}
	}
	if !slicesEqual(a.Columns.Nodes, b.Columns.Nodes) {
		t.Fatalf("%s: column nodes differ", what)
	}
	for i := range a.Columns.Nodes {
		if !a.Columns.One[i].Equal(b.Columns.One[i]) || !a.Columns.Zero[i].Equal(b.Columns.Zero[i]) {
			t.Fatalf("%s: column %d differs", what, i)
		}
	}
}

func slicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStuckAtClassesShareTSets is the oracle behind the factoring: every
// non-constant stuck-at site's T-set, simulated on its own, equals the
// T-set of the target the class map assigns it — on every embedded
// circuit with at most 12 inputs (c17 and s27 included) and on random
// circuits. Each target maps to itself.
func TestStuckAtClassesShareTSets(t *testing.T) {
	circuits := embeddedCircuits(t, 12)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		circuits = append(circuits, randomCircuit(t, rng, 4+rng.Intn(5), 8+rng.Intn(30)))
	}
	for _, c := range circuits {
		e, err := RunWorkers(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		targets := fault.StuckAtProvider{}.Enumerate(c)
		classes, err := fault.StuckAtClasses(c, targets)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		tT := e.StuckAtTSets(toStuckAt(targets))
		for i, d := range targets {
			if k, ok := classes.Target(int(d.A), d.V != 0); !ok || k != i {
				t.Fatalf("%s: target %d maps to %d (ok %v)", c.Name, i, k, ok)
			}
		}
		sites := fault.AllStuckAt(c)
		for i, ts := range e.StuckAtTSets(sites) {
			f := sites[i]
			k, ok := classes.Target(f.Node, f.Value)
			if !ok {
				t.Fatalf("%s: site %s has no class target", c.Name, f.Name(c))
			}
			if !ts.Equal(tT[k]) {
				t.Fatalf("%s: T(%s) = %s, its class target %s has %s", c.Name, f.Name(c), ts,
					targets[k].StuckAt().Name(c), tT[k])
			}
		}
	}
}

// TestFactoredBuilderDeterministic pins the default model's builder to one
// result at workers 1 and 3: on a 16-input circuit, where the column pass
// streams several blocks, and on small embedded circuits.
func TestFactoredBuilderDeterministic(t *testing.T) {
	circuits := []*circuit.Circuit{randomCircuit(t, rand.New(rand.NewSource(3)), 16, 80)}
	circuits = append(circuits, embeddedCircuits(t, 6)...)
	for _, c := range circuits {
		e1, err := RunWorkers(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		e3, err := RunWorkers(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, _, a := buildDefault(t, e1)
		_, _, b := buildDefault(t, e3)
		sameTSets(t, c.Name, a, b)
	}
}
