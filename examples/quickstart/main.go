// Quickstart: build a small circuit, compute both of the paper's analyses,
// and walk through the arithmetic of the worst-case bound the way the
// paper's Table 1 does.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ndetect"
)

func main() {
	// A 4-input circuit in the spirit of the paper's Figure 1: two AND
	// gates feeding an OR, with input i2 fanning out.
	b := ndetect.NewBuilder("quickstart")
	b.Input("i1")
	b.Input("i2")
	b.Input("i3")
	b.Input("i4")
	b.Gate(ndetect.And, "g9", "i1", "i2")
	b.Gate(ndetect.And, "g10", "i2", "i3", "i4")
	b.Gate(ndetect.Or, "g11", "g9", "g10")
	b.Output("g11")
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Analyze builds the paper's two fault universes over the exhaustive
	// input space U = {0..15}: F = collapsed stuck-at faults (targets),
	// G = four-way bridging faults (untargeted).
	u, err := ndetect.Analyze(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %s\n", c.Name, c.ComputeStats())
	fmt.Printf("|F| = %d target faults, |G| = %d untargeted faults\n\n",
		len(u.Targets), len(u.Untargeted))

	// ---- Worst-case analysis (paper Section 2) -------------------------
	wc := ndetect.WorstCase(&u.Universe)
	fmt.Println("worst-case guarantees:")
	for j, g := range u.Untargeted {
		nm := wc.NMin[j]
		if nm == ndetect.Unbounded {
			fmt.Printf("  %-22s no n-detection test set is ever guaranteed to detect it\n", g.Name)
			continue
		}
		fmt.Printf("  %-22s guaranteed by every n-detection test set with n ≥ %d\n", g.Name, nm)
	}

	// The Table 1 view for the hardest bridge: which target faults
	// constrain it, and how nmin(g) = min over f of N(f) − M(g,f) + 1.
	hardest, hv := 0, 0
	for j, v := range wc.NMin {
		if v != ndetect.Unbounded && v > hv {
			hardest, hv = j, v
		}
	}
	g := u.Untargeted[hardest]
	fmt.Printf("\nTable-1 style breakdown for %s (T(g) = %s):\n", g.Name, g.Set())
	fmt.Printf("  %-14s %-6s %-8s %s\n", "target f", "N(f)", "M(g,f)", "nmin(g,f)")
	for _, pc := range ndetect.ContributingFaults(g, u.Targets) {
		fmt.Printf("  %-14s %-6d %-8d %d\n", pc.Name, pc.N, pc.M, pc.NMin)
	}
	fmt.Printf("  → nmin(g) = %d\n\n", wc.NMin[hardest])

	// ---- Average-case analysis (paper Section 3) -----------------------
	// Procedure 1 builds K random n-detection test sets per n and counts
	// how many detect each untargeted fault.
	res, err := ndetect.Procedure1(&u.Universe, ndetect.Procedure1Options{
		NMax: 4, K: 1000, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("average-case detection probabilities p(n, g):")
	fmt.Printf("  %-22s", "fault")
	for n := 1; n <= 4; n++ {
		fmt.Printf("  n=%d  ", n)
	}
	fmt.Println()
	for j, g := range u.Untargeted {
		fmt.Printf("  %-22s", g.Name)
		for n := 1; n <= 4; n++ {
			fmt.Printf(" %.3f", res.P(n, j))
		}
		fmt.Println()
	}
	fmt.Printf("\nmean test set sizes: n=1 → %.1f vectors, n=4 → %.1f vectors\n",
		res.MeanSetSize(1), res.MeanSetSize(4))
}
