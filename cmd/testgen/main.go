// Command testgen generates a compact n-detection test set for a circuit
// and reports its size against the theoretical lower bound and its
// untargeted (bridging) fault coverage. The output format (one decimal
// vector per line) feeds directly into faultsim -tests.
//
// Usage:
//
//	testgen -bench keyb -n 5 -o tests.txt
//	testgen -netlist adder.net -n 3 -workers 8
//	faultsim -bench keyb -tests tests.txt -verify 5
//
// -workers bounds the fault-universe construction like every other binary
// (0 = one per CPU, 1 = serial); the generated test set is identical for
// every value (DESIGN.md §5). Generation itself is deterministic greedy
// selection.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"ndetect"
)

func main() {
	var (
		benchF   = flag.String("bench", "", "embedded benchmark name")
		netF     = flag.String("netlist", "", "netlist file")
		nF       = flag.Int("n", 1, "detections per target fault")
		outF     = flag.String("o", "", "output file (default stdout)")
		quietF   = flag.Bool("q", false, "suppress the stderr summary")
		workersF = flag.Int("workers", 0, "worker pool size for the fault-universe construction (0 = one per CPU, 1 = serial; DESIGN.md §5)")
	)
	flag.Parse()
	if *nF < 1 {
		fail(fmt.Errorf("-n must be ≥ 1"))
	}

	var c *ndetect.Circuit
	switch {
	case *benchF != "" && *netF == "":
		b, ok := ndetect.BenchmarkByName(*benchF)
		if !ok {
			fail(fmt.Errorf("unknown benchmark %q", *benchF))
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			fail(err)
		}
		c = r.Circuit
	case *netF != "" && *benchF == "":
		f, err := os.Open(*netF)
		if err != nil {
			fail(err)
		}
		cc, err := ndetect.ReadNetlist(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		c = cc
	default:
		fail(fmt.Errorf("specify exactly one of -bench or -netlist"))
	}

	u, err := ndetect.AnalyzeParallel(c, *workersF)
	if err != nil {
		fail(err)
	}
	ts := ndetect.GenerateCompact(&u.Universe, *nF)

	out := os.Stdout
	if *outF != "" {
		f, err := os.Create(*outF)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "# compact %d-detection test set for %s (%d vectors)\n", *nF, c.Name, ts.Len())
	for _, v := range ts.Vectors() {
		fmt.Fprintln(w, v)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}

	if !*quietF {
		cov := ndetect.UntargetedCoverage(ts, u.Untargeted)
		fmt.Fprintf(os.Stderr, "%s: %d vectors (lower bound %d) for n=%d over %d target faults\n",
			c.Name, ts.Len(), ndetect.TestSetLowerBound(&u.Universe, *nF), *nF, len(u.Targets))
		fmt.Fprintf(os.Stderr, "bridging coverage: %d/%d (%.2f%%)\n",
			cov, len(u.Untargeted), 100*float64(cov)/float64(max(len(u.Untargeted), 1)))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "testgen:", err)
	os.Exit(1)
}
