package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ndetect/internal/exp"
)

// A request is one analysis as the benchmark issues it: the circuit it
// names, its result-identity options, and the class it belongs to within
// its workload. Its key names the result document in the reference
// digest table; two requests with one key must produce identical bytes.
type request struct {
	class   string
	circuit string
	req     exp.AnalysisRequest
}

// key is the request's entry in the digest table: kind, fault model,
// circuit and the identity options its kind uses.
func (r request) key() string {
	k := string(r.req.Kind)
	if r.req.FaultModel != "" {
		k += "+" + r.req.FaultModel
	}
	k += "/" + r.circuit
	switch r.req.Kind {
	case exp.AverageAnalysis:
		k += fmt.Sprintf("/def%d/nmax%d/k%d/seed%d", r.req.Definition, r.req.NMax, r.req.K, r.req.Seed)
	case exp.PartitionedAnalysis:
		k += fmt.Sprintf("/m%d", r.req.MaxInputs)
	}
	return k
}

func worstCase(circuit, model string) request {
	return request{class: "worstcase", circuit: circuit,
		req: exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis, FaultModel: model}}
}

func average(class, circuit string, def, k int, seed int64) request {
	return request{class: class, circuit: circuit,
		req: exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 10, K: k, Seed: seed, Definition: def}}
}

func partitioned(circuit string, maxInputs int) request {
	return request{class: "partitioned", circuit: circuit,
		req: exp.AnalysisRequest{Kind: exp.PartitionedAnalysis, MaxInputs: maxInputs}}
}

// Workload pools. Every request any seed can generate lies in a finite
// space (the pools below crossed with the Procedure 1 seed pools), so the
// committed digest table covers every seed, not only the recorded ones.
var (
	// The heavy-tail surrogates: the paper's Tables 2–3 / Figure 2 path.
	tailCircuits = []string{"dvram", "rie", "s1a", "keyb", "cse", "bbsse", "fetch", "log"}

	// Definition 1 runs at the paper's K on these; Definition 2, whose
	// per-set check is far costlier, at a small K on the other two.
	def1Circuits = []string{"log", "fetch", "ex4", "opus", "bbsse"}
	def2Circuits = []string{"bbara", "opus"}

	// Procedure 1 seeds of the average-warm requests.
	averageSeeds = seedRange(1, 12)

	// msa2 on mid-size FSMs, transition on the hand-written ones, and the
	// wide ISCAS sample through the cone partitioner.
	msa2Circuits       = []string{"dk14", "dk17", "ex2", "ex3", "ex5", "ex7", "beecount", "bbara"}
	transitionCircuits = []string{"bbtas", "dk27", "firstex", "lion9", "train11", "donfile"}

	// serve-mixed circuits and option pools: hit repeats a worst-case
	// result, disk requests cycle through more results than the LRU
	// holds, and fresh requests never repeat within a run.
	serveCircuits = []string{"bbara", "opus", "dk14", "ex6"}
	diskSeeds     = seedRange(1001, 6)
	freshSeeds    = seedRange(1, 96)
)

// warmSeed is the Procedure 1 seed of serve-mixed's warm-up requests,
// outside every pool a timed request draws from.
const warmSeed = 2001

const (
	def1K  = 1000
	def2K  = 5
	serveK = 40
)

func seedRange(from int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
}

// space returns every request the workload can generate, for any seed.
func space(workload string) []request {
	var out []request
	switch workload {
	case "worstcase-tail":
		for _, c := range tailCircuits {
			out = append(out, worstCase(c, ""))
		}
	case "average-warm":
		for _, s := range averageSeeds {
			for _, c := range def1Circuits {
				out = append(out, average("def1", c, 1, def1K, s))
			}
			for _, c := range def2Circuits {
				out = append(out, average("def2", c, 2, def2K, s))
			}
		}
	case "fault-models":
		out = append(out, faultModelPool()...)
	case "serve-mixed":
		for _, c := range serveCircuits {
			out = append(out, worstCase(c, ""))
			for _, s := range diskSeeds {
				out = append(out, average("disk", c, 1, serveK, s))
			}
			for _, s := range freshSeeds {
				out = append(out, average("fresh", c, 1, serveK, s))
			}
			out = append(out, average("fresh", c, 1, serveK, warmSeed))
		}
	}
	return out
}

func faultModelPool() []request {
	var out []request
	for _, c := range msa2Circuits {
		r := worstCase(c, "msa2")
		r.class = "msa2"
		out = append(out, r)
	}
	for _, c := range transitionCircuits {
		r := worstCase(c, "transition")
		r.class = "transition"
		out = append(out, r)
	}
	return append(out, partitioned("w64", 16))
}

// blockRNG seeds the draw of block b. Each block has its own stream, so
// any prefix of a request list is the same however long a run goes.
func blockRNG(seed int64, b int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(b)))
}

// computeBlock returns block b of a compute workload's request list: the
// workload's pool in a seeded order, each circuit exactly once, with
// seeded Procedure 1 seeds. Whole blocks keep the mix of circuits, and
// with it the cost per request, the same for every seed.
func computeBlock(workload string, seed int64, b int) []request {
	rng := blockRNG(seed, b)
	var pool []request
	switch workload {
	case "worstcase-tail":
		for _, c := range tailCircuits {
			pool = append(pool, worstCase(c, ""))
		}
	case "average-warm":
		for _, c := range def1Circuits {
			pool = append(pool, average("def1", c, 1, def1K, averageSeeds[rng.Intn(len(averageSeeds))]))
		}
		for _, c := range def2Circuits {
			pool = append(pool, average("def2", c, 2, def2K, averageSeeds[rng.Intn(len(averageSeeds))]))
		}
	case "fault-models":
		pool = faultModelPool()
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// poolCircuits lists the distinct circuits of a workload's space, sorted.
func poolCircuits(workload string) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range space(workload) {
		if !seen[r.circuit] {
			seen[r.circuit] = true
			out = append(out, r.circuit)
		}
	}
	sort.Strings(out)
	return out
}
