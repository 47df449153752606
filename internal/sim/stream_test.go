package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/engine"
	"ndetect/internal/fault"
)

// propMasks computes, for each of a set of lines, the line's propagation
// mask: the set of vectors at which flipping that line's value changes at
// least one primary output. A fault whose only effect is "line id takes
// the opposite of its good value" — which covers both a stuck-at fault at
// its activation vectors and a dominance bridge at its activation vectors
// — is detected exactly on (activation ∩ mask).
//
// The masks are computed by streaming U in word blocks through streamLines,
// the kernel behind StuckAtTSets: per block, the good machine is evaluated
// once and each line's compiled fanout cone is replayed against the
// flipped value. IDs are deduplicated and the result is keyed by node ID.
// The streaming runs on e.Workers workers — lines fan out for small
// universes, blocks for large ones — and every schedule writes the same
// words, so the result is identical for any worker count.
func (e *Exhaustive) propMasks(ids []int) map[int]*bitset.Set {
	uniq := append([]int(nil), ids...)
	sort.Ints(uniq)
	uniq = slices.Compact(uniq)

	size := e.Circuit.VectorSpaceSize()
	sets := bitset.NewBatch(size, len(uniq))
	e.streamLines(uniq, func(li, lo int, prop []uint64, _ *engine.Exec) {
		sets[li].SetRange(lo, prop)
	})

	out := make(map[int]*bitset.Set, len(uniq))
	for i, id := range uniq {
		out[id] = sets[i]
	}
	return out
}

// saturationCircuit builds a circuit engineered so that cone replay
// saturates on its first output segment: s = AND(x0,x1) feeds o1 =
// XOR(s,x2), so flipping s flips o1 at every vector (an all-ones first
// diff that is NOT an AlwaysProp chain — XOR breaks the Buf/Not argument),
// and the second output o2 = AND(s,x3) is droppable. The padding inputs
// push the universe to 2^15 vectors = 512 words, so the block-parallel
// path runs with many blocks per worker.
func saturationCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("sat")
	pad := make([]string, 0, 11)
	for i := 0; i < 15; i++ {
		n := "x" + strconv.Itoa(i)
		b.Input(n)
		if i >= 4 {
			pad = append(pad, n)
		}
	}
	b.Gate(circuit.And, "s", "x0", "x1")
	b.Gate(circuit.Xor, "o1", "s", "x2")
	b.Gate(circuit.And, "o2", "s", "x3")
	b.Gate(circuit.Or, "o3", pad...)
	b.Output("o1")
	b.Output("o2")
	b.Output("o3")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

// TestSaturationDroppingDeterministic pins the fault-dropping contract of
// the prefix-batched replay (DESIGN.md §9): once a propagation mask
// saturates to all-ones, the remaining output segments are skipped — a cut
// that depends only on register data, never on worker schedule. On a
// circuit engineered to saturate after the first segment, every analysis
// must be byte-identical between one worker and eight.
func TestSaturationDroppingDeterministic(t *testing.T) {
	c := saturationCircuit(t)
	e1, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers(1): %v", err)
	}
	e8, err := RunWorkers(c, 8)
	if err != nil {
		t.Fatalf("RunWorkers(8): %v", err)
	}

	faults := fault.AllStuckAt(c)
	t1 := e1.StuckAtTSets(faults)
	t8 := e8.StuckAtTSets(faults)
	for i := range faults {
		if !t1[i].Equal(t8[i]) {
			t.Fatalf("fault %s: T-sets differ between 1 and 8 workers", faults[i].Name(c))
		}
	}

	ids := make([]int, c.NumNodes())
	for i := range ids {
		ids[i] = i
	}
	m1 := e1.propMasks(ids)
	m8 := e8.propMasks(ids)
	for _, id := range ids {
		if !m1[id].Equal(m8[id]) {
			t.Fatalf("node %d: prop masks differ between 1 and 8 workers", id)
		}
	}

	// Spot-check the engineered saturation against first principles: s's
	// flip reaches o1 = XOR(s, x2) at every vector, so its mask is all of U.
	sn, _ := c.NodeByName("s")
	if got, want := m1[sn.ID].Count(), c.VectorSpaceSize(); got != want {
		t.Fatalf("prop mask of s has %d vectors, want the full universe %d", got, want)
	}
}

// TestStreamingWarmConesAllocationGuard extends the allocation guard to
// the steady state: with the cone cache warm, a repeated T-set
// construction may allocate the per-fault result slabs plus per-worker
// scratch — and nothing per (line, block). The bound is an
// allocation *count* (objects, not bytes), because per-(line,block)
// garbage shows up as thousands of small objects while the legitimate
// slabs are a handful of large ones.
func TestStreamingWarmConesAllocationGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(t, rng, 20, 40)
	e, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	faults := fault.AllStuckAt(c)
	cold := e.StuckAtTSets(faults) // compiles and caches every cone

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	warm := e.StuckAtTSets(faults)
	runtime.ReadMemStats(&after)

	for i := range faults {
		if !cold[i].Equal(warm[i]) {
			t.Fatalf("fault %s: warm T-set differs from cold", faults[i].Name(c))
		}
	}

	// Legitimate warm-run objects: the result slab (NewBatch: ~3 objects
	// for all faults), grouping arrays, the replay order, and per-worker
	// scratch. Per-(line,block) garbage on this circuit would
	// be ~lines × blocks ≈ 80 × 64 ≈ 5000 objects on its own; per-fault
	// bitset allocation would add 2 × len(faults). Both must stay
	// impossible under the 600-object budget.
	allocs := int64(after.Mallocs - before.Mallocs)
	if allocs > 600 {
		t.Fatalf("warm streaming run allocated %d objects for %d faults, budget 600", allocs, len(faults))
	}
	t.Logf("warm streaming run: %d objects, %d bytes for %d faults over 2^%d vectors",
		allocs, after.TotalAlloc-before.TotalAlloc, len(faults), c.NumInputs())
}
