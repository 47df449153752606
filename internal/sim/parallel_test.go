package sim

import (
	"math/rand"
	"strconv"
	"testing"

	"ndetect/internal/fault"
)

func TestBlockRangesCoverEveryWord(t *testing.T) {
	for _, tc := range []struct{ nWords, blockWords int }{
		{1, minBlockWords}, {63, 64}, {64, 64}, {65, 64},
		{1 << 14, 256}, {minBlockWords*3 + 17, minBlockWords},
	} {
		blocks := blockRanges(tc.nWords, tc.blockWords)
		if len(blocks) == 0 {
			t.Fatalf("nWords=%d: no blocks", tc.nWords)
		}
		at := 0
		for _, b := range blocks {
			if b[0] != at || b[1] <= b[0] {
				t.Fatalf("nWords=%d: blocks not contiguous: %v", tc.nWords, blocks)
			}
			if b[1]-b[0] > tc.blockWords {
				t.Fatalf("nWords=%d: oversized block %v", tc.nWords, b)
			}
			at = b[1]
		}
		if at != tc.nWords {
			t.Fatalf("blocks cover [0,%d), want [0,%d)", at, tc.nWords)
		}
	}
}

func TestBlockWordsForStaysClamped(t *testing.T) {
	for _, tc := range []struct{ nWords, workers int }{
		{1, 1}, {128, 8}, {1 << 14, 1}, {1 << 22, 4}, {1 << 10, 64},
	} {
		bw := blockWordsFor(tc.nWords, tc.workers)
		if bw < minBlockWords || bw > maxBlockWords {
			t.Fatalf("blockWordsFor(%d, %d) = %d outside [%d, %d]",
				tc.nWords, tc.workers, bw, minBlockWords, maxBlockWords)
		}
	}
}

func TestParallelForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		hits := make([]int, 1000)
		ParallelFor(workers, len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestSplitWorkers pins the §5 budget split: min(W, n) items at once,
// ⌊W / that⌋ inner workers each, never fewer than one.
func TestSplitWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, n, outer, inner int }{
		{4, 0, 0, 1}, // nothing to run
		{1, 5, 1, 1}, // serial
		{2, 5, 2, 1}, // W < n
		{4, 4, 4, 1}, // W = n
		{8, 2, 2, 4}, // W > n
		{7, 2, 2, 3}, // remainder 1 stays unspent
		{5, 3, 3, 1}, // remainder 2 stays unspent
	} {
		outer, inner := SplitWorkers(tc.workers, tc.n)
		if outer != tc.outer || inner != tc.inner {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d), want (%d, %d)",
				tc.workers, tc.n, outer, inner, tc.outer, tc.inner)
		}
	}
	// 0 means one worker per CPU, exactly as ResolveWorkers resolves it.
	wo, wi := SplitWorkers(ResolveWorkers(0), 3)
	if outer, inner := SplitWorkers(0, 3); outer != wo || inner != wi {
		t.Errorf("SplitWorkers(0, 3) = (%d, %d), want (%d, %d)", outer, inner, wo, wi)
	}
}

// TestRunWorkersDeterministic checks the central contract of the streaming
// engine: block-parallel value materialization and T-set construction
// produce byte-identical results for every worker count, on a circuit large
// enough (16 inputs → 1024 words) that block sharding actually engages.
func TestRunWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomCircuit(t, rng, 16, 60)

	r1, err := RunRetained(c, 1)
	if err != nil {
		t.Fatalf("RunRetained(1): %v", err)
	}
	e1, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers(1): %v", err)
	}
	for _, workers := range []int{2, 8} {
		rN, err := RunRetained(c, workers)
		if err != nil {
			t.Fatalf("RunRetained(%d): %v", workers, err)
		}
		for id := range r1.Values {
			if !r1.Values[id].Equal(rN.Values[id]) {
				t.Fatalf("workers=%d: node %d values differ from serial", workers, id)
			}
		}

		eN, err := RunWorkers(c, workers)
		if err != nil {
			t.Fatalf("RunWorkers(%d): %v", workers, err)
		}
		faults := fault.CollapseStuckAt(c)
		t1 := e1.StuckAtTSets(faults)
		tN := eN.StuckAtTSets(faults)
		for i := range t1 {
			if !t1[i].Equal(tN[i]) {
				t.Fatalf("workers=%d: stuck-at T-set %d differs from serial", workers, i)
			}
		}

		_, _, b1 := buildDefault(t, e1)
		_, _, bN := buildDefault(t, eN)
		sameTSets(t, "workers="+strconv.Itoa(workers), b1, bN)
	}
}

// TestRunMatchesRunWorkersSerial pins RunRetained (auto worker count) to
// the serial reference on the small shared test circuit, where block
// sharding never engages but the fault-level pools do.
func TestRunMatchesRunWorkersSerial(t *testing.T) {
	c := testCircuit(t)
	a, err := RunRetained(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRetained(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a.Values {
		if !a.Values[id].Equal(b.Values[id]) {
			t.Fatalf("node %d: RunRetained(0) and RunRetained(1) disagree", id)
		}
	}
}
