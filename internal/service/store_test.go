package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
	"ndetect/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The restart contract (DESIGN.md §11): a new manager over the same store
// directory answers a previously computed request from disk — cached on
// the first submit, byte-identical to the original, no recomputation.
func TestRestartServesResultFromStore(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(Config{Workers: 2, Store: openStore(t, dir)})
	req := averageReq(7)
	info, cached, err := m1.Submit(c17(t), req)
	if err != nil || cached {
		t.Fatalf("first submit: cached=%v err=%v", cached, err)
	}
	cold, err := m1.Wait(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager, a fresh store handle, same directory.
	var computations atomic.Int64
	m2 := NewManager(Config{
		Workers: 2,
		Store:   openStore(t, dir),
		run: func(c *circuit.Circuit, req exp.AnalysisRequest) (*report.Analysis, error) {
			computations.Add(1)
			return exp.AnalyzeCircuit(c, req)
		},
	})
	again, cached, err := m2.Submit(c17(t), averageReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if !cached || again.ID != info.ID || again.State != JobDone {
		t.Fatalf("restart submit should be a warm hit: cached=%v info=%+v", cached, again)
	}
	warm, _, ok := m2.Result(again.ID)
	if !ok || !bytes.Equal(cold, warm) {
		t.Fatalf("warm result is not byte-identical (ok=%v, %d vs %d bytes)", ok, len(cold), len(warm))
	}
	if computations.Load() != 0 {
		t.Fatalf("restart recomputed %d times", computations.Load())
	}
	ctr := m2.Counters()
	if ctr.StoreHits != 1 || ctr.Computed != 0 {
		t.Fatalf("counters: %+v", ctr)
	}
	// The disk hit reloaded the memory LRU: a repeat is a plain cache hit.
	if _, cached, _ := m2.Submit(c17(t), averageReq(7)); !cached {
		t.Fatal("repeat after store hit should hit the memory LRU")
	}
	if ctr := m2.Counters(); ctr.CacheHits != 1 || ctr.StoreHits != 1 {
		t.Fatalf("counters after repeat: %+v", ctr)
	}
}

// A sweep of S variants constructs the exhaustive universe exactly once,
// and every variant's document is byte-identical to a cold one-shot run.
func TestSubmitSweepSharesUniverse(t *testing.T) {
	var builds atomic.Int64
	m := NewManager(Config{
		Workers: 4,
		newUniverse: func(c *circuit.Circuit, fm fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
			builds.Add(1)
			return ndetect.BuildUniverse(c, fm, opts)
		},
	})
	variants := []exp.AnalysisRequest{
		{Kind: exp.WorstCaseAnalysis},
		{Kind: exp.AverageAnalysis, NMax: 2, K: 20, Seed: 1},
		{Kind: exp.AverageAnalysis, NMax: 2, K: 20, Seed: 2},
		{Kind: exp.AverageAnalysis, NMax: 2, K: 20, Seed: 1, Definition: 2, Ge11Limit: 3},
	}
	jobs, err := m.SubmitSweep(c17(t), variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(variants) {
		t.Fatalf("%d jobs for %d variants", len(jobs), len(variants))
	}
	for i, j := range jobs {
		got, err := m.Wait(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := exp.AnalyzeCircuit(c17(t), variants[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cold.Encode()) {
			t.Fatalf("variant %d: swept bytes differ from cold one-shot run", i)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("sweep of %d variants constructed the universe %d times, want exactly 1", len(variants), got)
	}
	if ctr := m.Counters(); ctr.Sweeps != 1 || ctr.Computed != uint64(len(variants)) {
		t.Fatalf("counters: %+v", ctr)
	}

	// Resweeping is pure cache: no new jobs, no new construction.
	jobs, err = m.SubmitSweep(c17(t), variants)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.Cached {
			t.Fatalf("resweep variant not cached: %+v", j)
		}
	}
	if builds.Load() != 1 {
		t.Fatal("resweep reconstructed the universe")
	}
}

func TestSubmitSweepRejectsPartitioned(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	_, err := m.SubmitSweep(c17(t), []exp.AnalysisRequest{
		{Kind: exp.WorstCaseAnalysis},
		{Kind: exp.PartitionedAnalysis, MaxInputs: 4},
	})
	if err == nil {
		t.Fatal("partitioned sweep variant should be rejected")
	}
	if ctr := m.Counters(); ctr.Computed != 0 {
		t.Fatalf("rejected sweep enqueued jobs: %+v", ctr)
	}
}

// The universe tier survives restarts: a new manager computing a
// *different* variant of a known circuit loads the universe artifact
// instead of re-simulating.
func TestUniverseTierWarmStart(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int64
	counting := func(c *circuit.Circuit, fm fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
		builds.Add(1)
		return ndetect.BuildUniverse(c, fm, opts)
	}

	m1 := NewManager(Config{Workers: 2, Store: openStore(t, dir), newUniverse: counting})
	info, _, err := m1.Submit(c17(t), averageReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Wait(info.ID); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Fatalf("first job built %d universes", builds.Load())
	}

	m2 := NewManager(Config{Workers: 2, Store: openStore(t, dir), newUniverse: counting})
	info2, cached, err := m2.Submit(c17(t), averageReq(5)) // new seed: result miss
	if err != nil || cached {
		t.Fatalf("different seed should compute: cached=%v err=%v", cached, err)
	}
	want, err := exp.AnalyzeCircuit(c17(t), averageReq(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Wait(info2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Encode()) {
		t.Fatal("artifact-loaded universe changed the result bytes")
	}
	if builds.Load() != 1 {
		t.Fatalf("restarted manager rebuilt the universe (%d builds)", builds.Load())
	}
	sc, ok := m2.StoreCounters()
	if !ok || sc.Universes.Hits != 1 {
		t.Fatalf("universe tier counters: ok=%v %+v", ok, sc.Universes)
	}
}

// holdResultPuts is a store observer that holds the first result-tier
// write open, before it touches the disk, until release is closed; started
// is closed as that write begins.
type holdResultPuts struct {
	once             sync.Once
	started, release chan struct{}
}

func (h *holdResultPuts) Op(tier, op string) func() {
	if tier == store.ResultTier && op == "put" {
		h.once.Do(func() {
			close(h.started)
			<-h.release
		})
	}
	return func() {}
}

// Wait returns only once the job's result is on disk. runJob moves a
// finished job from the in-flight table into the memory LRU before its
// store write, so a Wait that answered from the LRU alone let a caller
// remove the store directory under that write. Here the write is held
// open: Wait, called once the job has left the in-flight table, must not
// return until the write is released, and the stored result must then be
// readable.
func TestWaitReturnsAfterStoreWrite(t *testing.T) {
	st := openStore(t, t.TempDir())
	m := NewManager(Config{Workers: 1, Store: st})
	hold := &holdResultPuts{started: make(chan struct{}), release: make(chan struct{})}
	st.SetObserver(hold)
	info, _, err := m.Submit(c17(t), worstcaseReq())
	if err != nil {
		t.Fatal(err)
	}
	<-hold.started // the job is out of the in-flight table, its write held
	returned := make(chan error, 1)
	go func() {
		_, err := m.Wait(info.ID)
		returned <- err
	}()
	select {
	case <-returned:
		t.Fatal("Wait returned while the job's store write was still open")
	case <-time.After(100 * time.Millisecond):
	}
	close(hold.release)
	if err := <-returned; err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.GetResult(info.ID); !ok {
		t.Fatal("result not in the store after Wait returned")
	}
}

// Eviction then recompute under concurrency: once a completed ID is
// evicted from the LRU, a burst of identical requests re-coalesces onto
// exactly one new computation whose bytes match the original.
func TestEvictionRecoalescesOntoOneComputation(t *testing.T) {
	const clients = 12
	var computations, worstcaseRuns atomic.Int64
	release := make(chan struct{})
	m := NewManager(Config{
		Workers:      2,
		CacheEntries: 1,
		run: func(c *circuit.Circuit, req exp.AnalysisRequest) (*report.Analysis, error) {
			computations.Add(1)
			if req.Kind == exp.WorstCaseAnalysis && worstcaseRuns.Add(1) > 1 {
				<-release // hold the post-eviction recompute until every client submitted
			}
			return exp.AnalyzeCircuit(c, req)
		},
	})

	first, _, err := m.Submit(c17(t), worstcaseReq())
	if err != nil {
		t.Fatal(err)
	}
	original, err := m.Wait(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	evictor, _, err := m.Submit(c17(t), averageReq(1)) // LRU size 1: evicts first
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(evictor.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Status(first.ID); ok {
		t.Fatal("original job should be evicted")
	}

	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, cached, err := m.Submit(c17(t), worstcaseReq())
			if err != nil {
				t.Error(err)
				return
			}
			if cached {
				t.Error("evicted ID served from cache")
				return
			}
			ids[i] = info.ID
		}(i)
	}
	wg.Wait()
	close(release)
	for _, id := range ids {
		if id != first.ID {
			t.Fatalf("recomputed job changed ID: %s vs %s", id, first.ID)
		}
		got, err := m.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, original) {
			t.Fatal("recomputed bytes differ from the original")
		}
	}
	// 1 original + 1 evictor + exactly 1 recompute for the whole burst.
	if got := computations.Load(); got != 3 {
		t.Fatalf("computations = %d, want 3 (burst must coalesce onto one)", got)
	}
	ctr := m.Counters()
	if ctr.Coalesced != clients-1 {
		t.Fatalf("coalesced = %d, want %d", ctr.Coalesced, clients-1)
	}
}

// Drain stops intake, finishes accepted work, and flushes the store.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	release := make(chan struct{})
	m := NewManager(Config{
		Workers: 2,
		Store:   st,
		run: func(c *circuit.Circuit, req exp.AnalysisRequest) (*report.Analysis, error) {
			<-release
			return exp.AnalyzeCircuit(c, req)
		},
	})
	info, _, err := m.Submit(c17(t), worstcaseReq())
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	// Drain must refuse new work while the accepted job is still running.
	for {
		if _, _, err := m.Submit(c17(t), averageReq(1)); err == ErrShuttingDown {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned before in-flight work finished: %v", err)
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	// The accepted job completed and its result reached the disk tier: a
	// fresh manager over the same directory serves it without computing.
	m2 := NewManager(Config{Workers: 1, Store: openStore(t, dir)})
	again, cached, err := m2.Submit(c17(t), worstcaseReq())
	if err != nil || !cached || again.ID != info.ID {
		t.Fatalf("drained result not persisted: cached=%v err=%v", cached, err)
	}

	// A deadline that cannot be met surfaces the context error.
	m3 := NewManager(Config{
		Workers: 1,
		run: func(c *circuit.Circuit, req exp.AnalysisRequest) (*report.Analysis, error) {
			select {} // never finishes
		},
	})
	if _, _, err := m3.Submit(c17(t), worstcaseReq()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m3.Drain(ctx); err == nil {
		t.Fatal("drain with stuck work should return the context error")
	}
}

// A finished job whose result left the memory LRU is still served from
// the store: with a one-entry LRU and two finished jobs, the first job's
// status, result and events come back from disk, its result byte for byte
// the first response. Unknown IDs stay 404.
func TestEvictedResultServedFromStore(t *testing.T) {
	m := NewManager(Config{Workers: 2, Store: openStore(t, t.TempDir()), CacheEntries: 1})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()

	first, _, err := m.Submit(c17(t), averageReq(1))
	if err != nil {
		t.Fatal(err)
	}
	firstBody, err := m.Wait(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := m.Submit(c17(t), averageReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(second.ID); err != nil {
		t.Fatal(err)
	}
	if ctr := m.Counters(); ctr.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1 (the first result evicted)", ctr.CacheEntries)
	}

	body, code := getBody(t, ts.URL+"/jobs/"+first.ID+"/result")
	if code != http.StatusOK || body != string(firstBody) {
		t.Fatalf("evicted result: HTTP %d, %d bytes, want 200 and the first response's %d bytes", code, len(body), len(firstBody))
	}
	body, code = getBody(t, ts.URL+"/jobs/"+first.ID)
	var info JobInfo
	if code != http.StatusOK || json.Unmarshal([]byte(body), &info) != nil || info.State != JobDone || info.ID != first.ID {
		t.Fatalf("evicted status: HTTP %d: %s", code, body)
	}
	if _, sub, ok := m.Events(first.ID); !ok || sub != nil {
		t.Fatalf("evicted events: ok=%v sub=%v, want the terminal snapshot alone", ok, sub)
	}
	for _, path := range []string{"/jobs/feedface", "/jobs/feedface/result", "/jobs/feedface/events"} {
		if _, code := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, code)
		}
	}
}
