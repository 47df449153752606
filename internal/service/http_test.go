package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/report"
	"ndetect/internal/store"
)

const c17Source = `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

// The same circuit with its gate statements shuffled — the hash-invariance
// path exercised end to end.
const c17SourceShuffled = `
23 = NAND(16, 19)
10 = NAND(1, 3)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
22 = NAND(10, 16)
OUTPUT(22)
OUTPUT(23)
16 = NAND(2, 11)
19 = NAND(11, 7)
11 = NAND(3, 6)
`

func postJob(t *testing.T, url string, body string) (SubmitResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub, resp.StatusCode
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

func pollDone(t *testing.T, url, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body, code := getBody(t, url+"/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d: %s", code, body)
		}
		var info JobInfo
		if err := json.Unmarshal([]byte(body), &info); err != nil {
			t.Fatal(err)
		}
		if info.State == JobDone || info.State == JobFailed {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobInfo{}
}

func TestHTTPEndToEnd(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	post := fmt.Sprintf(`{"format":"bench","name":"c17","source":%q,"analysis":"worstcase"}`, c17Source)
	sub, code := postJob(t, ts.URL, post)
	if code != http.StatusAccepted || sub.Cached {
		t.Fatalf("cold submit: HTTP %d cached=%v", code, sub.Cached)
	}
	if sub.Kind != "worstcase" || sub.Hash == "" {
		t.Fatalf("submit response incomplete: %+v", sub.JobInfo)
	}

	info := pollDone(t, ts.URL, sub.ID)
	if info.State != JobDone {
		t.Fatalf("job failed: %+v", info)
	}
	cold, code := getBody(t, ts.URL+"/jobs/"+sub.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, cold)
	}

	// The served document equals the shared driver's output byte for byte
	// — the CLI-diffability contract.
	c, err := circuit.ParseBenchString("c17", c17Source)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := exp.AnalyzeCircuit(c, exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(cold), direct.Encode()) {
		t.Fatalf("server result differs from the driver:\n%s\n---\n%s", cold, direct.Encode())
	}

	// A repeated POST is a cache hit (HTTP 200) with byte-identical result.
	again, code := postJob(t, ts.URL, post)
	if code != http.StatusOK || !again.Cached || again.ID != sub.ID {
		t.Fatalf("repeat submit: HTTP %d cached=%v id=%s (want %s)", code, again.Cached, again.ID, sub.ID)
	}
	hit, _ := getBody(t, ts.URL+"/jobs/"+sub.ID+"/result")
	if hit != cold {
		t.Fatal("cache hit result is not byte-identical to the cold run")
	}

	// The shuffled source is the same circuit: same job, no recompute.
	shuffled, code := postJob(t, ts.URL,
		fmt.Sprintf(`{"format":"bench","name":"whatever","source":%q}`, c17SourceShuffled))
	if code != http.StatusOK || !shuffled.Cached || shuffled.ID != sub.ID {
		t.Fatalf("statement reordering changed the job identity: HTTP %d cached=%v id=%s",
			code, shuffled.Cached, shuffled.ID)
	}

	if body, code := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	metrics, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"ndetectd_jobs_submitted_total 3",
		"ndetectd_jobs_computed_total 1",
		"ndetectd_jobs_cache_hits_total 2",
		"ndetectd_workers_total 4",
		"ndetectd_cache_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestHTTPAverageWithOptions(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	post := fmt.Sprintf(`{"format":"bench","source":%q,"analysis":"average","options":{"nmax":2,"k":20,"seed":7}}`, c17Source)
	sub, code := postJob(t, ts.URL, post)
	if code != http.StatusAccepted {
		t.Fatalf("HTTP %d", code)
	}
	if sub.Options.NMax != 2 || sub.Options.K != 20 || sub.Options.Seed != 7 || sub.Options.Definition != 1 {
		t.Fatalf("identity options not echoed/normalized: %+v", sub.Options)
	}
	pollDone(t, ts.URL, sub.ID)
	body, code := getBody(t, ts.URL+"/jobs/"+sub.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}
	doc, err := report.DecodeAnalysis([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Kind != "average" || doc.WorstCase == nil || doc.Average == nil {
		t.Fatalf("document malformed: kind=%s", doc.Kind)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"garbage":          `{not json`,
		"no circuit":       `{"analysis":"worstcase"}`,
		"both sources":     `{"benchmark":"bbtas","source":"circuit x","analysis":"worstcase"}`,
		"unknown format":   fmt.Sprintf(`{"format":"verilog","source":%q}`, c17Source),
		"unknown analysis": fmt.Sprintf(`{"format":"bench","source":%q,"analysis":"quantum"}`, c17Source),
		"parse error":      `{"format":"bench","source":"INPUT(1)\nOUTPUT(2)\n2 = FROB(1)"}`,
		"unknown bench":    `{"benchmark":"nope"}`,
		// State a's cubes 1- and -1 overlap at input 11 with different
		// next states.
		"nondeterministic kiss2": `{"format":"kiss2","source":".i 2\n.o 1\n1- a b 0\n-1 a a 0\n.e\n"}`,
	} {
		if _, code := postJob(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}

	if _, code := getBody(t, ts.URL+"/jobs/ffffffffffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", code)
	}
	if _, code := getBody(t, ts.URL+"/jobs/ffffffffffffffffffffffff/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: HTTP %d, want 404", code)
	}
}

// A result request for a still-running job answers 202 with the status
// snapshot, and a failed job answers 422 with its error.
func TestHTTPResultLifecycle(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(Config{
		Workers: 2,
		run: func(c *circuit.Circuit, req exp.AnalysisRequest) (*report.Analysis, error) {
			<-release
			if req.Kind == exp.AverageAnalysis {
				return nil, fmt.Errorf("deterministic failure for the test")
			}
			return stubAnalysis(req.Kind), nil
		},
	})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	post := fmt.Sprintf(`{"format":"bench","source":%q,"analysis":"worstcase"}`, c17Source)
	sub, _ := postJob(t, ts.URL, post)
	body, code := getBody(t, ts.URL+"/jobs/"+sub.ID+"/result")
	if code != http.StatusAccepted {
		t.Fatalf("running job result: HTTP %d: %s", code, body)
	}
	close(release)
	pollDone(t, ts.URL, sub.ID)

	fail, _ := postJob(t, ts.URL,
		fmt.Sprintf(`{"format":"bench","source":%q,"analysis":"average"}`, c17Source))
	if pollDone(t, ts.URL, fail.ID).State != JobFailed {
		t.Fatal("expected the average job to fail")
	}
	body, code = getBody(t, ts.URL+"/jobs/"+fail.ID+"/result")
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "deterministic failure") {
		t.Fatalf("failed job result: HTTP %d: %s", code, body)
	}
}

// POST /sweeps enqueues a variant grid over one circuit; every variant is
// an ordinary job, individually pollable and individually cached.
func TestHTTPSweep(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	postSweep := func(body string) (SweepResponse, int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sw SweepResponse
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
				t.Fatal(err)
			}
		}
		return sw, resp.StatusCode
	}

	post := fmt.Sprintf(`{"format":"bench","name":"c17","source":%q,"sweep":"nmax=2;k=20;seed=1..2"}`, c17Source)
	sw, code := postSweep(post)
	if code != http.StatusAccepted || len(sw.Jobs) != 2 {
		t.Fatalf("sweep submit: HTTP %d, %d jobs", code, len(sw.Jobs))
	}
	if sw.Jobs[0].ID == sw.Jobs[1].ID {
		t.Fatal("distinct variants share a job ID")
	}
	for i, j := range sw.Jobs {
		if pollDone(t, ts.URL, j.ID).State != JobDone {
			t.Fatalf("variant %d failed", i)
		}
		body, code := getBody(t, ts.URL+"/jobs/"+j.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("variant %d result: HTTP %d: %s", i, code, body)
		}
		// Byte-identity with the cold one-shot driver, per variant.
		c, err := circuit.ParseBenchString("c17", c17Source)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := exp.AnalyzeCircuit(c, exp.AnalysisRequest{
			Kind: exp.AverageAnalysis, NMax: 2, K: 20, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(body), direct.Encode()) {
			t.Fatalf("variant %d differs from the cold driver run", i)
		}
	}

	// A repeated sweep is all-cached: HTTP 200.
	if again, code := postSweep(post); code != http.StatusOK || !again.Jobs[0].Cached || !again.Jobs[1].Cached {
		t.Fatalf("repeat sweep: HTTP %d %+v", code, again.Jobs)
	}

	// Explicit variant lists work too, and mixed-kind grids are allowed.
	explicit := fmt.Sprintf(`{"format":"bench","source":%q,"variants":[`+
		`{"analysis":"worstcase"},`+
		`{"analysis":"average","options":{"nmax":2,"k":20,"seed":1}}]}`, c17Source)
	sw, code = postSweep(explicit)
	if code != http.StatusAccepted || len(sw.Jobs) != 2 {
		t.Fatalf("explicit variants: HTTP %d, %d jobs", code, len(sw.Jobs))
	}
	if !sw.Jobs[1].Cached {
		t.Fatal("previously swept variant should be cached")
	}
	pollDone(t, ts.URL, sw.Jobs[0].ID)

	for name, body := range map[string]string{
		"no grid":     fmt.Sprintf(`{"format":"bench","source":%q}`, c17Source),
		"both grids":  fmt.Sprintf(`{"format":"bench","source":%q,"sweep":"seed=1","variants":[{"analysis":"worstcase"}]}`, c17Source),
		"bad spec":    fmt.Sprintf(`{"format":"bench","source":%q,"sweep":"warp=9"}`, c17Source),
		"partitioned": fmt.Sprintf(`{"format":"bench","source":%q,"variants":[{"analysis":"partitioned"}]}`, c17Source),
		"no circuit":  `{"sweep":"seed=1"}`,
	} {
		if _, code := postSweep(body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
}

// /metrics speaks the Prometheus text exposition content type and carries
// the store tier counters.
func TestHTTPMetricsFormat(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Workers: 2, Store: st})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != MetricsContentType {
		t.Fatalf("content type %q, want %q", ct, MetricsContentType)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ndetectd_sweeps_total 0",
		"ndetectd_jobs_store_hits_total 0",
		"ndetectd_store_bytes 0",
		"ndetectd_store_results_hits_total 0",
		"ndetectd_store_results_misses_total 0",
		"ndetectd_store_results_evictions_total 0",
		"ndetectd_store_universes_hits_total 0",
		"ndetectd_store_universes_bytes 0",
	} {
		if !strings.Contains(string(b), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, b)
		}
	}
}

// A draining server refuses new jobs with 503.
func TestHTTPSubmitWhileDraining(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, code := postJob(t, ts.URL, `{"benchmark":"bbtas"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
}
