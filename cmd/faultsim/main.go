// Command faultsim is an exhaustive fault simulator: given a circuit and a
// test set, it reports stuck-at and bridging fault coverage, per-fault
// detection counts (Definition 1 and, optionally, Definition 2), and can
// verify the n-detection property.
//
// Usage:
//
//	faultsim -netlist FILE [-format net|bench] [-tests FILE] [-verify N] [-def2] [-faults]
//	faultsim -bench NAME  ...
//
// -format bench parses the file as an ISCAS-85/89 .bench netlist (DFFs
// stripped to the full-scan combinational view); -bench also accepts the
// embedded .bench samples (c17, s27, w64) besides the FSM surrogates.
//
// The test set file holds one input vector per line, in the paper's
// decimal MSB-first notation (e.g. "6" means 0110 for a 4-input circuit);
// blank lines and #-comments are ignored. Without -tests, the exhaustive
// set U is used (reporting plain detectability).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ndetect"
	"ndetect/internal/bench"
)

func main() {
	var (
		netF     = flag.String("netlist", "", "netlist file")
		formatF  = flag.String("format", "net", `syntax of the -netlist file: "net" or "bench" (ISCAS .bench)`)
		benchF   = flag.String("bench", "", "embedded benchmark name")
		testsF   = flag.String("tests", "", "test set file (decimal vectors; default: exhaustive)")
		verifyF  = flag.Int("verify", 0, "verify the test set is an N-detection test set")
		def2F    = flag.Bool("def2", false, "also count detections under Definition 2")
		faultsF  = flag.Bool("faults", false, "per-fault detail")
		workersF = flag.Int("workers", 0, "worker pool size for the exhaustive analysis (0 = one per CPU, 1 = serial)")
	)
	flag.Parse()

	var c *ndetect.Circuit
	switch {
	case *netF != "" && *benchF == "":
		f, err := os.Open(*netF)
		if err != nil {
			fail(err)
		}
		var cc *ndetect.Circuit
		switch *formatF {
		case "net", "":
			cc, err = ndetect.ReadNetlist(f)
		case "bench":
			cc, err = ndetect.ReadBench(strings.TrimSuffix(filepath.Base(*netF), ".bench"), f)
		default:
			err = fmt.Errorf("unknown -format %q (want net or bench)", *formatF)
		}
		f.Close()
		if err != nil {
			fail(err)
		}
		c = cc
	case *benchF != "" && *netF == "":
		cc, err := bench.CircuitByName(*benchF)
		if err != nil {
			fail(err)
		}
		c = cc
	default:
		fail(fmt.Errorf("specify exactly one of -netlist or -bench"))
	}

	u, err := ndetect.Analyze(c, "", ndetect.AnalyzeOptions{Workers: *workersF})
	if err != nil {
		fail(err)
	}

	ts := ndetect.NewTestSet(u.Size)
	if *testsF != "" {
		if err := readTests(*testsF, u.Size, ts); err != nil {
			fail(err)
		}
	} else {
		for v := 0; v < u.Size; v++ {
			ts.Add(v)
		}
	}

	fmt.Printf("circuit %s: %s\n", c.Name, c.ComputeStats())
	fmt.Printf("test set: %d vectors\n\n", ts.Len())

	// Stuck-at coverage.
	saDet, saDetectable := 0, 0
	for _, f := range u.Targets {
		if f.N() > 0 {
			saDetectable++
			if ts.Detects(f) {
				saDet++
			}
		}
	}
	fmt.Printf("stuck-at (collapsed): %d/%d detectable faults detected (%.2f%%)\n",
		saDet, saDetectable, pct(saDet, saDetectable))
	fmt.Printf("collapse ratio:       %.3f (equivalence collapsing kept %d targets)\n",
		ndetect.StuckAtCollapseRatio(c), len(u.Targets))

	brDet := 0
	for _, g := range u.Untargeted {
		if ts.Detects(g) {
			brDet++
		}
	}
	fmt.Printf("four-way bridging:    %d/%d detectable faults detected (%.2f%%)\n\n",
		brDet, len(u.Untargeted), pct(brDet, len(u.Untargeted)))

	if *verifyF > 0 {
		if ts.IsNDetection(*verifyF, u.Targets) {
			fmt.Printf("test set IS a %d-detection test set (Definition 1)\n", *verifyF)
		} else {
			fmt.Printf("test set is NOT a %d-detection test set (Definition 1)\n", *verifyF)
			for _, f := range u.Targets {
				d := ts.Detections(f)
				if d < *verifyF && d < f.N() {
					fmt.Printf("  %-20s detected %d times, N(f)=%d\n", f.Name, d, f.N())
				}
			}
		}
		fmt.Println()
	}

	if *faultsF {
		var checker ndetect.DistinctChecker
		if *def2F {
			checker = ndetect.NewDef2Checker(u)
		}
		fmt.Println("per-fault stuck-at detail:")
		for i, f := range u.Targets {
			d1 := ts.Detections(f)
			line := fmt.Sprintf("  %-20s N=%-5d det1=%d", f.Name, f.N(), d1)
			if checker != nil {
				line += fmt.Sprintf(" det2=%d", def2Count(checker, i, f, ts))
			}
			fmt.Println(line)
		}
	}
}

// def2Count greedily counts Definition 2 detections of fault i by the test
// set, processing tests in insertion order.
func def2Count(checker ndetect.DistinctChecker, i int, f ndetect.Fault, ts *ndetect.TestSet) int {
	var counted []int
	t := f.Set()
	for _, v := range ts.Vectors() {
		if !t.Contains(v) {
			continue
		}
		ok := true
		for _, m := range counted {
			if !checker.Distinct(i, v, m) {
				ok = false
				break
			}
		}
		if ok {
			counted = append(counted, v)
		}
	}
	return len(counted)
}

func readTests(path string, size int, ts *ndetect.TestSet) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 || v >= size {
			return fmt.Errorf("%s:%d: bad vector %q (universe size %d)", path, line, s, size)
		}
		ts.Add(v)
	}
	return sc.Err()
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultsim:", err)
	os.Exit(1)
}
