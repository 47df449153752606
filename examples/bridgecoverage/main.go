// Bridge coverage: the paper's motivating question on a real benchmark —
// how much four-way bridging fault coverage does a bound on n cost, and how
// far would n have to rise to close the gap?
//
// This walks the dvram surrogate (the paper's heaviest-tailed circuit)
// through the worst-case coverage curve, the hardest faults, and the
// average-case escape estimate.
//
// Run with:
//
//	go run ./examples/bridgecoverage [circuit]
package main

import (
	"fmt"
	"log"
	"os"

	"ndetect"
)

func main() {
	name := "dvram"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	u, err := ndetect.LoadBenchmark(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %s\n", name, u.Circuit.ComputeStats())
	fmt.Printf("|F| = %d collapsed stuck-at targets, |G| = %d bridging faults\n\n",
		len(u.Targets), len(u.Untargeted))

	wc := ndetect.WorstCase(&u.Universe)

	// Question 1 (paper §1): how much untargeted coverage is missed by
	// restricting n? The guaranteed-coverage curve answers it per n.
	fmt.Println("guaranteed bridging coverage of an ARBITRARY n-detection test set:")
	prev := -1.0
	for _, n := range []int{1, 2, 3, 5, 10, 20, 50, 100, 200, 500} {
		cov := 100 * wc.CoverageAt(n)
		marker := ""
		if cov == prev {
			marker = "  (no gain)"
		}
		fmt.Printf("  n = %-4d → %6.2f%%%s\n", n, cov, marker)
		prev = cov
		if cov >= 100 {
			break
		}
	}

	// Question 2: how much higher must n go to lose nothing?
	maxN := wc.MaxFinite()
	unbounded := 0
	for _, v := range wc.NMin {
		if v == ndetect.Unbounded {
			unbounded++
		}
	}
	fmt.Printf("\nto guarantee every detectable bridging fault: n ≥ %d", maxN)
	if unbounded > 0 {
		fmt.Printf(" — and %d faults have NO guaranteeing n at all", unbounded)
	}
	fmt.Println()
	fmt.Println("(the paper's conclusion: increasing n is not an effective way to chase the tail)")

	// The tail in detail: the hardest faults and why they are hard.
	fmt.Println("\nhardest five faults:")
	idx := wc.IndicesAtLeast(11)
	sortByNMinDesc(idx, wc.NMin)
	for i, j := range idx {
		if i >= 5 {
			break
		}
		g := u.Untargeted[j]
		contribs := ndetect.ContributingFaults(g, u.Targets)
		minN := 0
		for _, pc := range contribs {
			if minN == 0 || pc.N < minN {
				minN = pc.N
			}
		}
		fmt.Printf("  %-26s nmin = %-5d |T(g)| = %-4d overlapping targets: %d (smallest N(f) among them: %d)\n",
			g.Name, wc.NMin[j], g.N(), len(contribs), minN)
	}

	// Average-case: of the faults not guaranteed at n = 10, how many does a
	// RANDOM 10-detection test set actually catch?
	if len(idx) == 0 {
		fmt.Println("\nevery fault is guaranteed at n ≤ 10; no average-case tail to analyse")
		return
	}
	cap := 400
	if len(idx) < cap {
		cap = len(idx)
	}
	sub := u.SubsetUntargeted(idx[:cap])
	res, err := ndetect.Procedure1(sub, ndetect.Procedure1Options{NMax: 10, K: 400, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naverage case over the %d hardest faults (K = 400 random 10-detection test sets):\n", cap)
	certain, likely, coinflip, unlikely := 0, 0, 0, 0
	for j := range sub.Untargeted {
		switch p := res.P(10, j); {
		case p >= 0.999:
			certain++
		case p >= 0.8:
			likely++
		case p >= 0.4:
			coinflip++
		default:
			unlikely++
		}
	}
	fmt.Printf("  always detected: %d   likely (p≥0.8): %d   toss-up: %d   unlikely (p<0.4): %d\n",
		certain, likely, coinflip, unlikely)
	fmt.Printf("  expected number of these faults escaping a random 10-detection test set: %.1f\n",
		res.ExpectedEscapes(10))
}

func sortByNMinDesc(idx []int, nmin []int) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && nmin[idx[j]] > nmin[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
