package ndetect

import (
	"slices"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/sim"
)

// The default model's bridges are factored: T stays nil, and Words, Set
// and N read T(g) = s ∩ d, agreeing with the naive simulator. Words
// writes into a long enough dst and returns a materialized fault's own
// words. A missed direct read of T panics instead of reading a factor.
func TestFactoredFaultWords(t *testing.T) {
	raw, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	u, err := FromCircuitWorkers(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.Columns == nil || len(u.Untargeted) == 0 {
		t.Fatal("default-model universe is not factored")
	}
	words := (u.Size + 63) / 64
	dst := make([]uint64, words)
	for j, g := range u.Untargeted {
		if g.T != nil {
			t.Fatalf("%s: factored fault has a materialized T", g.Name)
		}
		want := sim.NaiveBridgeTSet(raw, u.UntargetedFaults[j].Bridge())
		if got := g.Set(); !got.Equal(want) {
			t.Fatalf("%s: Set = %s, naive %s", g.Name, got, want)
		}
		if got := g.Words(dst); &got[0] != &dst[0] || !slices.Equal(got, want.Words()) {
			t.Fatalf("%s: Words did not write T(g) into dst", g.Name)
		}
		if g.N() != want.Count() {
			t.Fatalf("%s: N = %d, want %d", g.Name, g.N(), want.Count())
		}
	}
	f := u.Targets[0]
	if got := f.Words(dst); &got[0] != &f.T.Words()[0] {
		t.Fatal("a materialized fault's Words must return its own words")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading T of a factored fault did not panic")
		}
	}()
	_ = u.Untargeted[0].T.Count()
}
