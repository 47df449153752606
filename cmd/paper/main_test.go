package main

import (
	"bytes"
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
