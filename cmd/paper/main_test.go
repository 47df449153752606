package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the reproduction golden files in testdata/")

// TestPaperGolden pins what `paper` prints for the flags in each case
// against testdata/*.txt, at every worker count listed: the reproduced
// numbers of Tables 2, 3, 5 and 6 and Figure 2. Any change that moves one
// of them fails here and shows in the golden's diff. Regenerate with
// `go test ./cmd/paper -update` only for an intended change.
func TestPaperGolden(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		args    []string
		workers []int
	}{
		// paper -table 2,3: all 35 circuits, Figure 2 on dvram
		{"table23", []string{"-table", "2,3"}, []int{1, 2, 3}},
		// paper -table all -circuits lion,bbara,log,opus -k5 30 -k6 15
		{"all_lion_bbara_log_opus", []string{"-table", "all", "-circuits", "lion,bbara,log,opus", "-k5", "30", "-k6", "15"}, []int{1, 3}},
	} {
		path := filepath.Join("testdata", tc.golden+".txt")
		for _, w := range tc.workers {
			t.Run(fmt.Sprintf("%s/workers%d", tc.golden, w), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := append([]string{"-workers", fmt.Sprint(w)}, tc.args...)
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("paper %v: exit %d: %s", args, code, stderr.String())
				}
				got := stdout.Bytes()
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("paper %v differs from %s (regenerate with -update if intended):\n%s", args, path, got)
				}
			})
		}
	}
}

// Tables 5 and 6 name the run's n in their p(n,gj) header.
func TestPaperTable5And6HeaderFollowsNMax(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-table", "5,6", "-circuits", "bbara", "-nmax", "5", "-k5", "5", "-k6", "3"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("paper %v: exit %d: %s", args, code, stderr.String())
	}
	out := stdout.String()
	if strings.Count(out, "p(5,gj) ≥") != 2 || strings.Contains(out, "p(10,") {
		t.Fatalf("paper %v: headers do not name n = 5:\n%s", args, out)
	}
}

// Under -csv every section is CSV, Table 6 and Figure 2 included: each
// stdout line is one record with as many fields as its section's header.
// -compare prints the published rows as formatted text, so under -csv it
// is refused before any analysis runs, with nothing on stdout.
func TestPaperCSVRejectsCompare(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-csv", "-compare", "-table", "2,3", "-circuits", "lion,bbara", "-figure2", ""}
	if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-compare") {
		t.Fatalf("paper %v: exit %d, stdout %q, stderr %q; want exit 2 and a reason", args, code, stdout.String(), stderr.String())
	}
}

func TestPaperCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-csv", "-table", "all", "-circuits", "bbara,log", "-k5", "5", "-k6", "5", "-figure2", "log"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("paper %v: exit %d: %s", args, code, stderr.String())
	}
	var headers []string
	width := 0
	for i, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
		rec, err := csv.NewReader(strings.NewReader(line)).Read()
		if err != nil {
			t.Fatalf("line %d %q: %v", i+1, line, err)
		}
		if rec[0] == "circuit" || rec[0] == "nmin" {
			headers = append(headers, line)
			width = len(rec)
			continue
		}
		if len(rec) != width {
			t.Fatalf("line %d %q: %d fields, its section header has %d", i+1, line, len(rec), width)
		}
	}
	// Tables 2, 3, Figure 2, Tables 5 and 6.
	if len(headers) != 5 || headers[2] != "nmin,count" || !strings.HasPrefix(headers[4], "circuit,faults,def,") {
		t.Fatalf("paper %v: section headers %q", args, headers)
	}
}
