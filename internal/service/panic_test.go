package service

import (
	"strings"
	"sync/atomic"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
	"ndetect/internal/sim"
)

// waitFailed waits for job id and checks it failed with the fixed text of
// a panicking job.
func waitFailed(t *testing.T, m *Manager, id string) {
	t.Helper()
	if _, err := m.Wait(id); err == nil || !strings.Contains(err.Error(), errJobPanicked.Error()) {
		t.Fatalf("job %s: Wait error %v, want %q", id, err, errJobPanicked)
	}
	info, ok := m.Status(id)
	if !ok || info.State != JobFailed || info.Error != errJobPanicked.Error() {
		t.Fatalf("job %s: status %+v (ok=%v), want failed with %q", id, info, ok, errJobPanicked)
	}
}

// A panicking analysis fails its job alone: a panic raised inline in the
// run and one raised on a worker of a 2-worker sim.ParallelFor each end
// the job failed with the fixed error text, return its worker grant and
// universe reference, and persist nothing; the next job then completes.
func TestPanickingJobFailsAlone(t *testing.T) {
	st := openStore(t, t.TempDir())
	m := NewManager(Config{
		Workers: 2,
		Store:   st,
		run: func(c *circuit.Circuit, req exp.AnalysisRequest) (*report.Analysis, error) {
			switch req.Seed {
			case 1:
				panic("inline")
			case 2:
				sim.ParallelFor(2, 64, func(i int) {
					if i == 5 {
						panic("worker")
					}
				})
			}
			return exp.AnalyzeCircuit(c, req)
		},
	})
	for _, seed := range []int64{1, 2} {
		info, _, err := m.Submit(c17(t), averageReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitFailed(t, m, info.ID)
		if _, _, ok := st.GetResult(info.ID); ok {
			t.Fatalf("seed %d: the failed job's result was persisted", seed)
		}
		m.mu.Lock()
		used, flights := m.used, len(m.universes)
		m.mu.Unlock()
		if used != 0 || flights != 0 {
			t.Fatalf("seed %d: after the failure %d workers are in use and %d universe flights live, want 0 and 0", seed, used, flights)
		}
	}
	info, _, err := m.Submit(c17(t), averageReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(info.ID); err != nil {
		t.Fatalf("the job after the failures: %v", err)
	}
	if ctr := m.Counters(); ctr.Failed != 2 || ctr.Completed != 1 {
		t.Fatalf("counters %+v, want 2 failed and 1 completed", ctr)
	}
}

// A universe build that panics fails the job that started it, and a job
// waiting on the same flight fails with the same error instead of
// blocking forever. The next flight builds again and completes.
func TestPanickingUniverseBuildReleasesFlight(t *testing.T) {
	release := make(chan struct{})
	var builds atomic.Int32
	m := NewManager(Config{
		Workers: 2,
		newUniverse: func(c *circuit.Circuit, fm fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
			if builds.Add(1) == 1 {
				<-release
				panic("universe")
			}
			return ndetect.BuildUniverse(c, fm, opts)
		},
	})
	var ids []string
	for _, req := range []exp.AnalysisRequest{worstcaseReq(), averageReq(1)} {
		info, _, err := m.Submit(c17(t), req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	close(release)
	for _, id := range ids {
		waitFailed(t, m, id)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("the shared flight ran %d builds, want 1", n)
	}
	info, _, err := m.Submit(c17(t), averageReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(info.ID); err != nil {
		t.Fatalf("the job after the failed flight: %v", err)
	}
}
