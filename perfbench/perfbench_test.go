package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pinnedCounts are the work counts later changes may cite as counts: each
// must repeat exactly across runs of one seed and across worker budgets.
var pinnedCounts = []string{
	"sim.tset_bytes",
	"ndetect.target_faults",
	"ndetect.untargeted_faults",
	"ndetect.procedure1_sets",
	"ndetect.procedure1_faults",
	"partition.parts",
	"report.document_bytes",
}

// TestMain lets the test binary stand in for the command when a run
// times a set-up in a fresh process of its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-only" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func committed(t *testing.T) digestTable {
	t.Helper()
	d, err := loadDigests("")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDigestsCoverEverySeed checks that every request any seed can draw
// has a committed reference digest.
func TestDigestsCoverEverySeed(t *testing.T) {
	d := committed(t)
	for _, w := range workloadNames {
		for _, r := range space(w) {
			if _, ok := d[r.key()]; !ok {
				t.Errorf("%s: no digest for %s", w, r.key())
			}
		}
	}
}

// TestRequestListsFollowTheSeed checks that a request list is a function
// of the seed alone and that different seeds draw different lists.
func TestRequestListsFollowTheSeed(t *testing.T) {
	keys := func(seed int64) string {
		var b strings.Builder
		for blk := 0; blk < 3; blk++ {
			for _, w := range []string{"worstcase-tail", "average-warm", "fault-models"} {
				for _, r := range computeBlock(w, seed, blk) {
					b.WriteString(r.key() + " ")
				}
			}
		}
		for _, r := range serveSchedule(seed, 5*time.Second) {
			b.WriteString(r.key() + r.at.String())
		}
		return b.String()
	}
	if keys(7) != keys(7) {
		t.Error("one seed generated two request lists")
	}
	if keys(7) == keys(8) {
		t.Error("seeds 7 and 8 generated the same request list")
	}
}

// TestProgressStagesCloseAtBracketEnd checks that the last universe stage
// ends with its bracket, not at the next progress callback, and that the
// layer self times never exceed the bracket they lie in.
func TestProgressStagesCloseAtBracketEnd(t *testing.T) {
	tr := newReqTracer()
	end := tr.Begin("universe")
	tr.Progress("simulate", 0, 3)
	tr.Progress("stuck-at-tsets", 1, 3)
	tr.Progress("bridge-tsets", 2, 3)
	tr.Progress("universe", 3, 3)
	time.Sleep(5 * time.Millisecond)
	end()
	time.Sleep(50 * time.Millisecond)
	endWC := tr.Begin("worstcase")
	tr.Progress("worstcase", 0, 1)
	tr.Progress("worstcase", 1, 1)
	endWC()

	if !tr.built {
		t.Error("progress 0/3 did not mark a universe construction")
	}
	if got := tr.self["ndetect.assemble"]; got < 5*time.Millisecond || got >= 50*time.Millisecond {
		t.Errorf("ndetect.assemble = %v, want the 5ms up to the bracket's end", got)
	}
	if tr.self["ndetect.worstcase"] >= 50*time.Millisecond {
		t.Errorf("ndetect.worstcase = %v includes the gap before its bracket", tr.self["ndetect.worstcase"])
	}
}

// traceCounts runs one traced pass over a fixed request list, one block
// of a compute workload or 2s of serve-mixed, and returns its pinned
// counts.
func traceCounts(t *testing.T, b instance, seed int64) map[string]float64 {
	t.Helper()
	var p *passResult
	if cb, ok := b.(*computeBench); ok {
		p = newPass(true)
		cb.runBlock(p, seed, 0, true)
	} else {
		p = b.run(seed, 2*time.Second, true)
	}
	if failed := p.counts().failed; failed > 0 {
		t.Fatalf("%d failed requests: %v", failed, p.errs)
	}
	// Spans add up: the layer spans never cover more than the request,
	// and on a compute workload they cover nearly all of it.
	layers := p.ledger.layersMs()
	untraced, request := layers["exp.untraced_ms"], layers["exp.request_ms"]
	if untraced < 0 || untraced > request {
		t.Errorf("exp.untraced_ms = %v of exp.request_ms %v", untraced, request)
	}
	if _, serve := b.(*serveBench); !serve && untraced > 0.15*request {
		t.Errorf("exp.untraced_ms = %v is over 15%% of exp.request_ms %v", untraced, request)
	}
	out := map[string]float64{"requests": float64(p.ledger.requests)}
	for _, k := range pinnedCounts {
		out[k] = p.ledger.counts[k]
	}
	return out
}

// TestCountsRepeat pins the work counts: two runs of one seed, and runs
// at one worker and at one worker per CPU, count the same work.
func TestCountsRepeat(t *testing.T) {
	d := committed(t)
	nproc := runtime.GOMAXPROCS(0)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			if testing.Short() && w == "worstcase-tail" {
				t.Skip("worstcase-tail takes about 20s")
			}
			var runs []map[string]float64
			for _, workers := range []int{nproc, nproc, 1} {
				b, err := setup(w, t.TempDir(), workers, d)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, traceCounts(t, b, 3))
				b.close()
			}
			for i, r := range runs[1:] {
				for k, v := range runs[0] {
					if r[k] != v {
						t.Errorf("run %d: %s = %v, first run %v", i+2, k, r[k], v)
					}
				}
			}
			if runs[0]["report.document_bytes"] == 0 {
				t.Error("no documents counted")
			}
		})
	}
}

// TestWrongDigestExitsNonZero checks that result bytes differing from the
// reference make the command fail instead of reporting a speed.
func TestWrongDigestExitsNonZero(t *testing.T) {
	d := committed(t)
	victim := partitioned("w64", 16).key()
	var b strings.Builder
	for k, v := range d {
		if k == victim {
			v = strings.Repeat("0", len(v))
		}
		b.WriteString(k + " " + v + "\n")
	}
	path := filepath.Join(t.TempDir(), "digests.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fault-models", "--seed", "1", "--seconds", "1", "--digests", path}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with a wrong digest; stderr:\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("result %+v, want correct false and a failed request", res)
	}
}

// TestFailuresMakeRunIncorrect checks the verdict: an error, a timeout or
// a digest mismatch makes a run incorrect, and a 503/429 shed alone does
// not.
func TestFailuresMakeRunIncorrect(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    sample
		want bool
	}{
		{"ok", sample{ok: true}, true},
		{"shed", sample{shed: true}, true},
		{"mismatch", sample{mismatch: true}, false},
		{"error", sample{}, false},
	} {
		p := &passResult{samples: []sample{{ok: true}, tc.s}}
		if got := p.counts().correct(); got != tc.want {
			t.Errorf("%s: correct = %v, want %v", tc.name, got, tc.want)
		}
	}
}
