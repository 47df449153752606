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
// -bench names a suite benchmark or an embedded .bench sample (c17, s27).
// -workers bounds the fault-universe construction like every other binary
// (0 = one per CPU, 1 = serial); the generated test set is identical for
// every value (DESIGN.md §5). Generation itself is deterministic greedy
// selection.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"ndetect"
	"ndetect/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it writes the test set to stdout, or to
// -o, and the summary and diagnostics to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("testgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchF   = fs.String("bench", "", "embedded benchmark name")
		netF     = fs.String("netlist", "", "netlist file")
		nF       = fs.Int("n", 1, "detections per target fault")
		outF     = fs.String("o", "", "output file (default stdout)")
		quietF   = fs.Bool("q", false, "suppress the stderr summary")
		workersF = fs.Int("workers", 0, "worker pool size for the fault-universe construction (0 = one per CPU, 1 = serial; DESIGN.md §5)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "testgen:", err)
		return 1
	}
	if *nF < 1 {
		return fail(fmt.Errorf("-n must be ≥ 1"))
	}

	var c *ndetect.Circuit
	switch {
	case *benchF != "" && *netF == "":
		cc, err := bench.CircuitByName(*benchF)
		if err != nil {
			return fail(err)
		}
		c = cc
	case *netF != "" && *benchF == "":
		f, err := os.Open(*netF)
		if err != nil {
			return fail(err)
		}
		cc, err := ndetect.ReadNetlist(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		c = cc
	default:
		return fail(fmt.Errorf("specify exactly one of -bench or -netlist"))
	}

	u, err := ndetect.Analyze(c, "", ndetect.AnalyzeOptions{Workers: *workersF})
	if err != nil {
		return fail(err)
	}
	ts := ndetect.GenerateCompact(&u.Universe, *nF)

	out := stdout
	if *outF != "" {
		f, err := os.Create(*outF)
		if err != nil {
			return fail(err)
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
		return fail(err)
	}

	if !*quietF {
		cov := ndetect.UntargetedCoverage(ts, u.Untargeted)
		fmt.Fprintf(stderr, "%s: %d vectors (lower bound %d) for n=%d over %d target faults\n",
			c.Name, ts.Len(), ndetect.TestSetLowerBound(&u.Universe, *nF), *nF, len(u.Targets))
		fmt.Fprintf(stderr, "bridging coverage: %d/%d (%.2f%%)\n",
			cov, len(u.Untargeted), 100*float64(cov)/float64(max(len(u.Untargeted), 1)))
	}
	return 0
}
