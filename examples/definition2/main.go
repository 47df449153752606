// Definition 2: the paper's Section 4 shows that counting only
// "sufficiently different" tests as repeated detections (Definition 2)
// makes n-detection test sets better at catching untargeted faults without
// growing n. This example reproduces that comparison on one benchmark.
//
// Two tests t_i, t_j count as distinct detections of a fault f only if the
// partial vector t_ij — specified where t_i and t_j agree, X elsewhere —
// does NOT already detect f: if the shared bits alone detect the fault,
// the two tests exercise it the same way.
//
// Run with:
//
//	go run ./examples/definition2 [circuit]
package main

import (
	"fmt"
	"log"
	"os"

	"ndetect"
)

var thresholds = []float64{1.0, 0.9, 0.8, 0.6, 0.4, 0.2, 0.0}

func main() {
	name := "keyb"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	u, err := ndetect.LoadBenchmark(name)
	if err != nil {
		log.Fatal(err)
	}
	wc := ndetect.WorstCase(&u.Universe)
	idx := wc.IndicesAtLeast(11)
	if len(idx) == 0 {
		log.Fatalf("%s has no faults with nmin ≥ 11; try dvram or s1a", name)
	}
	if len(idx) > 300 {
		idx = idx[:300]
	}
	sub := u.SubsetUntargeted(idx)
	fmt.Printf("circuit %s: comparing Definitions 1 and 2 on %d faults not guaranteed at n = 10\n\n",
		name, len(idx))

	const K = 200
	opts := ndetect.Procedure1Options{NMax: 10, K: K, Seed: 11}
	r1, err := ndetect.Procedure1(sub, opts)
	if err != nil {
		log.Fatal(err)
	}

	opts.Checker = ndetect.NewDef2Checker(u) // selects Definition 2
	r2, err := ndetect.Procedure1(sub, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("faults with p(10,g) at or above each threshold (K = %d random test sets):\n\n", K)
	fmt.Printf("  %-12s", "p(10,g) ≥")
	for _, th := range thresholds {
		fmt.Printf(" %6.1f", th)
	}
	fmt.Println()
	printRow("Definition 1", countsAt(r1, len(idx)))
	printRow("Definition 2", countsAt(r2, len(idx)))

	var mean1, mean2 float64
	for j := range sub.Untargeted {
		mean1 += r1.P(10, j)
		mean2 += r2.P(10, j)
	}
	mean1 /= float64(len(idx))
	mean2 /= float64(len(idx))
	fmt.Printf("\nmean detection probability: %.3f (Def 1) vs %.3f (Def 2)\n", mean1, mean2)
	fmt.Printf("expected escapes:           %.1f (Def 1) vs %.1f (Def 2)\n",
		r1.ExpectedEscapes(10), r2.ExpectedEscapes(10))
	fmt.Printf("mean 10-detection set size: %.1f (Def 1) vs %.1f (Def 2) vectors\n",
		r1.MeanSetSize(10), r2.MeanSetSize(10))
	fmt.Println("\nDefinition 2 buys coverage with test-set diversity instead of a larger n —")
	fmt.Println("the paper's recommended lever when the worst-case tail makes raising n futile.")
}

func countsAt(r *ndetect.Procedure1Result, total int) []int {
	out := make([]int, len(thresholds))
	for j := 0; j < total; j++ {
		p := r.P(10, j)
		for i, th := range thresholds {
			if p >= th-1e-12 {
				out[i]++
			}
		}
	}
	return out
}

func printRow(label string, counts []int) {
	fmt.Printf("  %-12s", label)
	for _, c := range counts {
		fmt.Printf(" %6d", c)
	}
	fmt.Println()
}
