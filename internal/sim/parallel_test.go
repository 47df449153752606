package sim

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
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
		ParallelFor(workers, len(hits), func(_, i int) { hits[i]++ })
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
// engine: block-parallel good-machine values and T-set construction
// produce byte-identical results for every worker count, on a circuit large
// enough (16 inputs → 1024 words) that block sharding actually engages.
func TestRunWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomCircuit(t, rng, 16, 60)

	v1 := nodeValues(t, c, 1)
	e1, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers(1): %v", err)
	}
	for _, workers := range []int{2, 8} {
		vN := nodeValues(t, c, workers)
		for id := range v1 {
			if !v1[id].Equal(vN[id]) {
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

// TestRunMatchesRunWorkersSerial pins the good-machine values at the auto
// worker count to the serial reference on the small shared test circuit,
// where block sharding never engages.
func TestRunMatchesRunWorkersSerial(t *testing.T) {
	c := testCircuit(t)
	a := nodeValues(t, c, 0)
	b := nodeValues(t, c, 1)
	for id := range a {
		if !a[id].Equal(b[id]) {
			t.Fatalf("node %d: workers 0 and 1 disagree", id)
		}
	}
}

// TestParallelForReraisesWorkerPanic: a panic in fn reaches the caller at
// every worker count, where it can be recovered, and the pool stops
// handing out indices after it.
func TestParallelForReraisesWorkerPanic(t *testing.T) {
	const n = 100000
	for _, workers := range []int{1, 2, 4} {
		var ran atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			ParallelFor(workers, n, func(_, i int) {
				ran.Add(1)
				if i == 3 {
					panic("boom")
				}
				runtime.Gosched()
			})
			return nil
		}()
		if got != "boom" {
			t.Fatalf("workers=%d: recovered %v, want the worker's panic", workers, got)
		}
		if k := ran.Load(); k == n {
			t.Fatalf("workers=%d: all %d indices ran after the panic", workers, k)
		}
	}
}

// TestParallelForWorkerNumbers: ParallelFor passes every call a worker
// number below the resolved worker count, and calls with one number never
// overlap, so per-worker state needs no lock (-race checks the plain
// counters below).
func TestParallelForWorkerNumbers(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		calls := make([]int, ResolveWorkers(workers))
		hits := make([]int, 1000)
		ParallelFor(workers, len(hits), func(w, i int) {
			calls[w]++
			hits[i]++
		})
		total := 0
		for _, c := range calls {
			total += c
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
		if total != len(hits) {
			t.Fatalf("workers=%d: %d calls counted per worker, want %d", workers, total, len(hits))
		}
	}
}
