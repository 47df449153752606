package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/exp"
)

// circuitSnapshot copies everything a job could reach through a shared
// circuit: its netlist, its two schedules and every node's edges.
type circuitSnapshot struct {
	text          string
	topo, level   []int
	fanin, fanout [][]int
}

func snapshotCircuit(c *circuit.Circuit) circuitSnapshot {
	s := circuitSnapshot{
		text:  c.WriteString(),
		topo:  slices.Clone(c.TopoOrder()),
		level: slices.Clone(c.LevelOrder()),
	}
	for _, n := range c.Nodes {
		s.fanin = append(s.fanin, slices.Clone(n.Fanin))
		s.fanout = append(s.fanout, slices.Clone(n.Fanout))
	}
	return s
}

// By-name submits analyse bench's memoized synthesis, or the embedded
// .bench sample parsed once, which every by-name caller in the process
// shares. Every job kind run on them leaves them unchanged and serves the
// driver's bytes for an unshared copy, and the same circuit sent inline is
// the same job.
func TestByNameJobsLeaveSharedCircuitUnchanged(t *testing.T) {
	b, _ := bench.ByName("bbara")
	shared, err := b.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotCircuit(shared.Circuit)
	fresh, err := b.Synthesize(bench.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{Workers: 4})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	checkResultOn := func(id string, fresh *circuit.Circuit, req exp.AnalysisRequest) {
		t.Helper()
		if info := pollDone(t, ts.URL, id); info.State != JobDone {
			t.Fatalf("%s job failed: %+v", req.Kind, info)
		}
		body, code := getBody(t, ts.URL+"/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("%s result: HTTP %d: %s", req.Kind, code, body)
		}
		direct, err := exp.AnalyzeCircuit(fresh, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(body), direct.Encode()) {
			t.Errorf("%s %+v: served result differs from the driver's on an unshared copy", req.Kind, req)
		}
	}
	checkResult := func(id string, req exp.AnalysisRequest) {
		t.Helper()
		checkResultOn(id, fresh.Circuit, req)
	}

	var worstID string
	for _, c := range []struct {
		body string
		req  exp.AnalysisRequest
	}{
		{`{"benchmark":"bbara","analysis":"worstcase"}`,
			exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis}},
		{`{"benchmark":"bbara","analysis":"average","options":{"nmax":2,"k":10,"seed":1,"definition":1}}`,
			exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 2, K: 10, Seed: 1, Definition: 1}},
		{`{"benchmark":"bbara","analysis":"average","options":{"nmax":2,"k":10,"seed":1,"definition":2}}`,
			exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 2, K: 10, Seed: 1, Definition: 2}},
		{`{"benchmark":"bbara","analysis":"partitioned","options":{"max_inputs":8}}`,
			exp.AnalysisRequest{Kind: exp.PartitionedAnalysis, MaxInputs: 8}},
	} {
		sub, code := postJob(t, ts.URL, c.body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d", c.body, code)
		}
		checkResult(sub.ID, c.req)
		if c.req.Kind == exp.WorstCaseAnalysis {
			worstID = sub.ID
		}
	}

	resp, err := http.Post(ts.URL+"/sweeps", "application/json",
		strings.NewReader(`{"benchmark":"bbara","sweep":"nmax=2;k=10;seed=3..4"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sw SweepResponse
	err = json.NewDecoder(resp.Body).Decode(&sw)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || len(sw.Jobs) != 2 {
		t.Fatalf("sweep: HTTP %d, %d jobs, %v", resp.StatusCode, len(sw.Jobs), err)
	}
	for i, j := range sw.Jobs {
		checkResult(j.ID, exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 2, K: 10, Seed: int64(3 + i)})
	}

	inline, code := postJob(t, ts.URL,
		fmt.Sprintf(`{"format":"net","source":%q,"analysis":"worstcase"}`, fresh.Circuit.WriteString()))
	if code != http.StatusOK || !inline.Cached || inline.ID != worstID {
		t.Errorf("inline bbara: HTTP %d cached=%v id=%s, want the by-name job %s", code, inline.Cached, inline.ID, worstID)
	}

	if !reflect.DeepEqual(snapshotCircuit(shared.Circuit), before) {
		t.Fatal("a job changed the shared synthesized circuit")
	}

	// The embedded samples by name: c17's worst case and w64's partitioned
	// analysis run on the shared parse.
	for _, c := range []struct {
		name, body string
		req        exp.AnalysisRequest
	}{
		{"c17", `{"benchmark":"c17","analysis":"worstcase"}`,
			exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis}},
		{"w64", `{"benchmark":"w64","analysis":"partitioned","options":{"max_inputs":16}}`,
			exp.AnalysisRequest{Kind: exp.PartitionedAnalysis, MaxInputs: 16}},
	} {
		sample, err := circuit.EmbeddedBench(c.name)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshotCircuit(sample)
		src, err := os.ReadFile("../circuit/benchdata/" + c.name + ".bench")
		if err != nil {
			t.Fatal(err)
		}
		unshared, err := circuit.ParseBenchString(c.name, string(src))
		if err != nil {
			t.Fatal(err)
		}
		sub, code := postJob(t, ts.URL, c.body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d", c.body, code)
		}
		checkResultOn(sub.ID, unshared, c.req)
		if !reflect.DeepEqual(snapshotCircuit(sample), before) {
			t.Fatalf("a %s job changed the shared %s sample", c.req.Kind, c.name)
		}
	}
}

// A by-name load after the first is a lookup: no synthesis, no parse, no
// allocation, for an FSM surrogate and an embedded .bench sample alike.
func TestByNameLoadAllocs(t *testing.T) {
	for _, name := range []string{"bbara", "w64"} {
		ref := &CircuitRef{Benchmark: name}
		if _, err := loadSubmittedCircuit(ref); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := loadSubmittedCircuit(ref); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("a by-name load of %s allocates %.0f times, want 0", name, allocs)
		}
	}
}
