package fault

import (
	"slices"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
)

// classCircuits are the .bench samples and the smaller synthesized
// benchmarks.
func classCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var out []*circuit.Circuit
	for _, name := range circuit.EmbeddedBenchNames() {
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	for _, b := range bench.All() {
		if b.TotalInputs() > 10 {
			continue
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Circuit)
	}
	return out
}

// Against the collapsed list, every fault site maps to a target, each
// target maps to itself, and the sites of one class share one target.
func TestStuckAtClassesCoverCollapsedTargets(t *testing.T) {
	for _, c := range classCircuits(t) {
		targets := StuckAtProvider{}.Enumerate(c)
		m, err := StuckAtClasses(c, targets)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for i, d := range targets {
			if k, ok := m.Target(int(d.A), d.V != 0); !ok || k != i {
				t.Fatalf("%s: target %d maps to %d (ok %v)", c.Name, i, k, ok)
			}
		}
		u := newStuckAtUnion(c)
		for _, f := range AllStuckAt(c) {
			k, ok := m.Target(f.Node, f.Value)
			if !ok {
				t.Fatalf("%s: site %s has no target", c.Name, f.Name(c))
			}
			tg := targets[k]
			if u.find(site(f.Node, f.Value)) != u.find(site(int(tg.A), tg.V != 0)) {
				t.Fatalf("%s: site %s maps to %s outside its class", c.Name, f.Name(c), tg.StuckAt().Name(c))
			}
		}
		if _, ok := m.Target(c.NumNodes(), false); ok {
			t.Fatalf("%s: a node out of range has a target", c.Name)
		}
	}
}

// A target list missing a class is an error, not a silent gap.
func TestStuckAtClassesRejectMissingTarget(t *testing.T) {
	c, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	targets := StuckAtProvider{}.Enumerate(c)
	for _, drop := range []int{0, len(targets) / 2, len(targets) - 1} {
		short := slices.Delete(slices.Clone(targets), drop, drop+1)
		if _, err := StuckAtClasses(c, short); err == nil {
			t.Fatalf("dropping target %d: no error", drop)
		}
	}
}

// referenceBridges is the enumeration Bridges replaced: transitive fanin
// in a map keyed by node, the result grown by append.
func referenceBridges(c *circuit.Circuit) []Bridge {
	sites := BridgeSites(c)
	tfi := make(map[int][]bool, len(sites))
	for _, s := range sites {
		tfi[s] = c.TransitiveFanin(s)
	}
	var out []Bridge
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			u, w := sites[i], sites[j]
			if tfi[w][u] || tfi[u][w] {
				continue
			}
			out = append(out,
				Bridge{Dominant: u, Victim: w, Value: false},
				Bridge{Dominant: u, Victim: w, Value: true},
				Bridge{Dominant: w, Victim: u, Value: false},
				Bridge{Dominant: w, Victim: u, Value: true},
			)
		}
	}
	return out
}

// Bridges keeps the reference order exactly, and sizes its result once.
func TestBridgesMatchReferenceOrder(t *testing.T) {
	for _, c := range classCircuits(t) {
		got, want := Bridges(c), referenceBridges(c)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d bridges differ from the reference's %d", c.Name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: cap %d, len %d: the result was not sized once", c.Name, cap(got), len(got))
		}
	}
}
