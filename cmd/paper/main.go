// Command paper regenerates the evaluation of "Worst-Case and Average-Case
// Analysis of n-Detection Test Sets" (Pomeranz & Reddy, DATE 2005) on the
// embedded benchmark suite: Tables 2, 3, 5 and 6 and Figure 2.
//
// Every row is read off the analysis documents of one exp.Sweep per
// circuit (exp.RunAll), which analyses the canonical form of the
// synthesized circuit exactly as `ndetect -json` and ndetectd do. A Table 5
// row therefore equals the average-case section of
// `ndetect -bench NAME -avg -nmax N -k K5 -seed S -ge11 CAP`, and a Table 6
// row those of the same command at -k K6 with and without -def2.
//
// Usage:
//
//	paper [flags]
//
//	-table   which tables to produce: "2", "3", "5", "6", "all", or a
//	         comma list (default "2,3")
//	-figure2 circuit whose nmin distribution to plot (default "dvram";
//	         "" disables)
//	-circuits comma-separated circuit subset (default: all 35)
//	-k5      test sets per n for Table 5 (paper: 10000; default 1000)
//	-k6      test sets per n for Table 6 (paper: 1000; default 200)
//	-nmax    n of Tables 5 and 6: they estimate p(n,g) over the faults
//	         with nmin > n, the paper's nmin ≥ 11 at the default 10
//	-seed    RNG seed (default 1)
//	-ge11cap cap on that nmin > n subset per circuit for Tables 5/6
//	         (0 = no cap; default 500)
//	-workers parallelism at every level: circuits fan out across this many
//	         goroutines and each circuit's share drives its sweep's
//	         simulation, worst case and Procedure 1 (0 = one per CPU;
//	         1 = serial). Tables are identical for every value.
//	-compare also print the paper's published rows for side-by-side reading
//	         (formatted text only: it does not combine with -csv)
//	-csv     emit CSV instead of formatted tables: each table under its
//	         own header row, Figure 2 as nmin,count rows with the
//	         unbounded faults as nmin "inf"
//	-v       progress to stderr
//
// Runtime scales with k5/k6; the defaults finish in a few minutes on a
// laptop. Paper-scale statistics: -k5 10000 -k6 1000 -ge11cap 0.
//
// testdata/ pins what `paper -table 2,3` prints (all 35 circuits, Figure 2
// on dvram) and a Tables 5 and 6 run; regenerate with
// `go test ./cmd/paper -update` only for an intended change.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ndetect/internal/bench"
	"ndetect/internal/exp"
	"ndetect/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, prints the requested
// tables to stdout and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tableF   = fs.String("table", "2,3", `tables to produce: "2","3","5","6","all" or comma list`)
		figure2F = fs.String("figure2", "dvram", "circuit for the Figure 2 histogram (empty disables)")
		circF    = fs.String("circuits", "", "comma-separated circuit subset (default all)")
		k5F      = fs.Int("k5", 1000, "test sets per n for Table 5 (paper: 10000)")
		k6F      = fs.Int("k6", 200, "test sets per n for Table 6 (paper: 1000)")
		nmaxF    = fs.Int("nmax", 10, "n of Tables 5/6: p(n,g) over the faults with nmin > n")
		seedF    = fs.Int64("seed", 1, "RNG seed")
		capF     = fs.Int("ge11cap", 500, "cap on the nmin > nmax subset per circuit for Tables 5/6 (0 = none)")
		workersF = fs.Int("workers", 0, "worker pool size at every level (0 = one per CPU, 1 = serial)")
		compareF = fs.Bool("compare", false, "also print the paper's published rows (formatted text; not with -csv)")
		csvF     = fs.Bool("csv", false, "emit CSV")
		verboseF = fs.Bool("v", false, "progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *compareF && *csvF {
		fmt.Fprintln(stderr, "-compare prints the published rows as formatted text and does not combine with -csv")
		return 2
	}

	want := map[string]bool{}
	for _, t := range strings.Split(*tableF, ",") {
		t = strings.TrimSpace(t)
		if t == "all" {
			want["2"], want["3"], want["5"], want["6"] = true, true, true, true
			continue
		}
		if t != "" {
			want[t] = true
		}
	}

	cfg := exp.Config{
		NMax:      *nmaxF,
		K5:        *k5F,
		K6:        *k6F,
		Seed:      *seedF,
		Ge11Limit: *capF,
		Workers:   *workersF,
	}
	if *circF != "" {
		for _, c := range strings.Split(*circF, ",") {
			c = strings.TrimSpace(c)
			if _, ok := bench.ByName(c); !ok {
				fmt.Fprintf(stderr, "unknown circuit %q; known: %s\n", c, strings.Join(bench.Names(), " "))
				return 2
			}
			cfg.Circuits = append(cfg.Circuits, c)
		}
	}

	fig2 := *figure2F
	if fig2 != "" {
		if _, ok := bench.ByName(fig2); !ok {
			fmt.Fprintf(stderr, "unknown -figure2 circuit %q\n", fig2)
			return 2
		}
		if len(cfg.Circuits) > 0 && !contains(cfg.Circuits, fig2) {
			fig2 = "" // subset excludes it
		}
	}

	start := time.Now()
	var observe func(string)
	if *verboseF {
		observe = func(name string) {
			fmt.Fprintf(stderr, "[%6.1fs] %s done\n", time.Since(start).Seconds(), name)
		}
	}

	res, err := exp.RunAll(cfg, fig2, want["5"], want["6"], observe)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	// emit prints one table or the figure: its CSV form under -csv, else
	// its formatted text.
	emit := func(csv, text string) {
		if *csvF {
			fmt.Fprint(stdout, csv)
		} else {
			fmt.Fprintln(stdout, text)
		}
	}
	if want["2"] {
		emit(report.CSVTable2(res.Table2), report.FormatTable2(res.Table2))
		if *compareF {
			fmt.Fprintln(stdout, paperTable2())
		}
	}
	if want["3"] {
		emit(report.CSVTable3(res.Table3), report.FormatTable3(res.Table3))
		if *compareF {
			fmt.Fprintln(stdout, paperTable3())
		}
	}
	if f := res.Figure2; f != nil {
		emit(report.CSVFigure2(*f), report.FormatFigure2(*f))
	}
	if want["5"] {
		emit(report.CSVTable5(res.Table5), report.FormatTable5(res.Table5, res.NMax))
		if *compareF {
			fmt.Fprintln(stdout, paperTable5())
		}
	}
	if want["6"] {
		emit(report.CSVTable6(res.Table6), report.FormatTable6(res.Table6, res.NMax))
	}
	return 0
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// paperTable2 renders the published Table 2 for comparison.
func paperTable2() string {
	var rows []report.Table2Row
	for _, b := range bench.All() {
		p, ok := bench.PaperTable2[b.Name]
		if !ok {
			continue
		}
		r := report.Table2Row{Circuit: b.Name, Faults: p.Faults}
		copy(r.Pct[:], p.Pct[:])
		rows = append(rows, r)
	}
	return "[paper] " + report.FormatTable2(rows)
}

func paperTable3() string {
	var rows []report.Table3Row
	for _, b := range bench.All() {
		p, ok := bench.PaperTable3[b.Name]
		if !ok {
			continue
		}
		rows = append(rows, report.Table3Row{
			Circuit: b.Name, Faults: p.Faults, Ge100: p.Ge100, Ge20: p.Ge20, Ge11: p.Ge11,
		})
	}
	return "[paper] " + report.FormatTable3(rows)
}

func paperTable5() string {
	var rows []report.Table5Row
	for _, name := range bench.Table5Circuits {
		p, ok := bench.PaperTable5[name]
		if !ok {
			continue
		}
		r := report.Table5Row{Circuit: name, Faults: p.Faults}
		for i, c := range p.Counts {
			if c < 0 {
				r.Counts[i] = p.Faults // blank cell: all faults above threshold
			} else {
				r.Counts[i] = c
			}
		}
		rows = append(rows, r)
	}
	return "[paper] " + report.FormatTable5(rows, 10)
}
