// Package service is the serving layer over the analysis engine: a job
// manager that accepts analysis requests, content-addresses them by
// canonical circuit hash + result-identity options (DESIGN.md §7),
// coalesces identical concurrent requests into one computation, caches
// results in a bounded LRU, and schedules distinct jobs under the one §5
// worker budget — extending the budget-splitting rule from
// circuits-within-a-run to jobs-within-a-server (DESIGN.md §10).
//
// Because every analysis is a pure function of (circuit, identity options,
// seed) and encodes deterministically, a cached result is byte-identical
// to the cold run that would have produced it, at any worker count. That
// is the invariant the whole package is built on, and what its
// golden-stability tests pin.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/obs"
	"ndetect/internal/report"
	"ndetect/internal/sim"
	"ndetect/internal/store"
)

// DefaultCacheEntries bounds the result LRU when Config leaves it unset.
const DefaultCacheEntries = 256

// DefaultMaxQueue is the accept-queue bound the daemon runs with unless
// told otherwise (§15): deep enough that a burst at typical job
// durations drains within a Retry-After cycle, shallow enough that
// overload turns into prompt 503 sheds instead of minutes of queueing.
// The zero Config value still means unbounded — callers opt in.
const DefaultMaxQueue = 256

// ErrShuttingDown is returned by Submit once Drain has begun: the server
// finishes accepted work but takes no more.
var ErrShuttingDown = errors.New("service: shutting down")

// ErrOverloaded is returned by Submit when the accept queue is at its
// configured bound (DESIGN.md §15): the server sheds the request instead
// of queueing without limit and collapsing under memory pressure and
// unbounded latency. Cache hits and coalesces are never shed — they
// consume no queue slot. HTTP maps this to 503 with a Retry-After hint.
var ErrOverloaded = errors.New("service: overloaded, accept queue full")

// errJobPanicked fails a job whose analysis or encoding panicked. Its text
// is fixed, so the failure reads the same whichever worker's panic
// surfaced first; the panic value and stack go to the log.
var errJobPanicked = errors.New("service: analysis failed: internal error")

// Config configures a Manager.
type Config struct {
	// Workers is the server-wide §5 worker budget W (0 = one worker per
	// CPU). At any moment at most min(W, jobs) jobs run concurrently and
	// the sum of their inner worker grants never exceeds W.
	Workers int
	// CacheEntries bounds the result LRU (0 = DefaultCacheEntries).
	CacheEntries int
	// Store, when non-nil, persists completed results and universe
	// artifacts across restarts (DESIGN.md §11): submits missing the
	// in-memory LRU fall through to the disk result tier, and universe
	// constructions load from / save to the universe tier. The manager
	// never closes the store; its owner does.
	Store *store.Store
	// DefaultFaultModel is the fault model filled into submissions that
	// name none ("" = fault.DefaultModelID). Callers validate the ID with
	// fault.Resolve before constructing the manager; requests naming their
	// own model are unaffected.
	DefaultFaultModel string
	// MaxQueue bounds the accept queue (jobs admitted but not yet
	// dispatched): a submission that would push the queue past the bound
	// is shed with ErrOverloaded instead of admitted (DESIGN.md §15).
	// 0 = unbounded, the pre-§15 behavior. Cache hits, store hits and
	// coalesces never consume a queue slot and are never shed.
	MaxQueue int
	// QuotaRPS/QuotaBurst configure the per-client submit quota: each
	// client key (the X-Ndetect-Client header, or the remote address)
	// accrues QuotaRPS tokens per second up to QuotaBurst, and an empty
	// bucket answers HTTP 429 with a Retry-After hint. QuotaRPS <= 0
	// disables quotas. The quota guards submissions only — status polls,
	// result fetches and event streams stay unmetered (they are cheap
	// and shedding them would break clients waiting on admitted work).
	QuotaRPS   float64
	QuotaBurst int

	// run computes one analysis; tests substitute it to observe and block
	// the scheduler. nil = exp.AnalyzeCircuit.
	run func(*circuit.Circuit, exp.AnalysisRequest) (*report.Analysis, error)
	// newUniverse constructs one exhaustive universe on a universe-tier
	// miss; tests substitute it to count constructions. nil =
	// ndetect.BuildUniverse.
	newUniverse func(*circuit.Circuit, fault.Model, ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error)
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle: queued → running → done | failed.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// ProgressInfo is the latest stage transition a running job reported
// (ndetect.Progress semantics: units are stage-specific).
type ProgressInfo struct {
	Stage string `json:"stage,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// JobInfo is a point-in-time snapshot of one job, safe to hold after the
// manager has moved on.
type JobInfo struct {
	// ID is the job's content address: identical requests — same canonical
	// circuit, same result-identity options — get the same ID, which is
	// what makes coalescing and caching fall out of a map lookup.
	ID      string         `json:"id"`
	Kind    string         `json:"kind"`
	Circuit string         `json:"circuit"`
	Hash    string         `json:"hash"`
	Options report.Options `json:"options"`
	State   JobState       `json:"status"`
	// Workers is the inner worker grant while running (0 otherwise). It
	// never influences the result, only wall-clock time.
	Workers  int          `json:"workers,omitempty"`
	Progress ProgressInfo `json:"progress"`
	Error    string       `json:"error,omitempty"`
}

// Counters is a snapshot of the manager's monitoring counters.
type Counters struct {
	Submitted uint64 `json:"submitted"` // Submit calls
	CacheHits uint64 `json:"cache_hits"`
	// StoreHits counts submits answered from the disk result tier — warm
	// hits that survived a restart or in-memory eviction. They also load
	// the in-memory LRU, so a repeat is a plain CacheHit.
	StoreHits uint64 `json:"store_hits"`
	Coalesced uint64 `json:"coalesced"` // submits joined to an in-flight job
	Computed  uint64 `json:"computed"`  // jobs actually enqueued (cache misses)
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Sweeps    uint64 `json:"sweeps"` // SubmitSweep calls

	// ShedQueue counts submissions shed at the accept-queue bound
	// (ErrOverloaded, HTTP 503); ShedQuota counts submissions shed by a
	// per-client quota (HTTP 429). Both are deliberate refusals — the
	// overload story working — not failures.
	ShedQueue uint64 `json:"shed_queue"`
	ShedQuota uint64 `json:"shed_quota"`

	Queued  int `json:"queued"`
	Running int `json:"running"`
	// QueueLimit is the configured accept-queue bound (0 = unbounded).
	QueueLimit       int `json:"queue_limit"`
	WorkersInUse     int `json:"workers_in_use"`
	WorkersTotal     int `json:"workers_total"`
	PeakWorkersInUse int `json:"peak_workers_in_use"`
	CacheEntries     int `json:"cache_entries"`
	CacheCapacity    int `json:"cache_capacity"`
	// UniverseFlights is the number of live shared-universe flights
	// (universes.go) at snapshot time.
	UniverseFlights int `json:"universe_flights"`
}

// job is the manager's mutable bookkeeping for one in-flight computation.
// All fields except done/result/err are guarded by Manager.mu; done is
// closed exactly once at completion, after which result/err are immutable.
type job struct {
	info    JobInfo
	circuit *circuit.Circuit
	req     exp.AnalysisRequest
	// ukey is the universe-flight key the job holds a reference on while
	// in flight ("" for kinds that build no exhaustive universe).
	ukey   string
	done   chan struct{}
	result []byte
	err    error

	// queued times the job's admission wait (submit → dispatch); the
	// timer's clock lives in obs, outside the detrand scope.
	queued obs.Timer

	// rec collects the job's trace spans. Safe outside Manager.mu — the
	// recorder carries its own lock.
	rec *obs.Recorder
	// seq numbers the job's published events; subs are the live event
	// subscriptions (events.go). Both guarded by Manager.mu.
	seq  int64
	subs []*EventSub
}

// Manager owns the job queue, the scheduler and the result cache.
type Manager struct {
	workers      int
	run          func(*circuit.Circuit, exp.AnalysisRequest) (*report.Analysis, error)
	newUniverse  func(*circuit.Circuit, fault.Model, ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error)
	store        *store.Store
	defaultModel string
	maxQueue     int
	// quota is the per-client admission limiter (nil when disabled). The
	// limiter owns every clock read; this package only asks it.
	quota *obs.RateLimiter

	// met and traces are the observability sinks (observe.go): latency
	// histograms plus the retained span log behind Manager.Trace.
	met    *metrics
	traces *obs.TraceLog

	mu        sync.Mutex
	closed    bool
	inflight  map[string]*job // queued or running, by ID
	queue     []*job          // submission order
	used      int             // inner worker grants currently out
	cache     *resultCache
	universes map[string]*universeFlight // live universe sharing (universes.go)
	ctr       Counters

	// persist tracks in-progress disk writes so Drain can flush the store
	// before the owner closes it.
	persist sync.WaitGroup
}

// NewManager starts an empty manager. It spawns no goroutines until work
// arrives; there is nothing to shut down beyond abandoning it (or Drain
// for a clean handoff).
func NewManager(cfg Config) *Manager {
	entries := cfg.CacheEntries
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	run := cfg.run
	if run == nil {
		run = exp.AnalyzeCircuit
	}
	newUniverse := cfg.newUniverse
	if newUniverse == nil {
		newUniverse = ndetect.BuildUniverse
	}
	w := sim.ResolveWorkers(cfg.Workers)
	m := &Manager{
		workers:      w,
		run:          run,
		newUniverse:  newUniverse,
		store:        cfg.Store,
		defaultModel: cfg.DefaultFaultModel,
		maxQueue:     cfg.MaxQueue,
		met:          newMetrics(),
		traces:       obs.NewTraceLog(traceDepth),
		inflight:     make(map[string]*job),
		cache:        newResultCache(entries),
		universes:    make(map[string]*universeFlight),
		ctr:          Counters{WorkersTotal: w, CacheCapacity: entries, QueueLimit: cfg.MaxQueue},
	}
	if cfg.QuotaRPS > 0 {
		burst := cfg.QuotaBurst
		if burst <= 0 {
			// Default burst: a couple of seconds of the sustained rate, so
			// a well-behaved client's startup spike is not shed.
			burst = int(2 * cfg.QuotaRPS)
		}
		m.quota = obs.NewRateLimiter(cfg.QuotaRPS, burst)
	}
	if m.store != nil {
		m.store.SetObserver(storeObserver{dur: m.met.storeDur})
	}
	return m
}

// jobKey is the canonical request identity: the circuit's content hash
// plus every result-identity option of DESIGN.md §7 — and nothing else.
// Workers and the circuit's display name are deliberately absent. The
// fault model component appears only for non-default models (Normalize
// canonicalizes the default to ""), so every pre-registry job ID is
// unchanged.
func jobKey(hash string, req *exp.AnalysisRequest) string {
	key := fmt.Sprintf("ndetect.job/v1|%s|%s|nmax=%d|k=%d|seed=%d|def=%d|ge11=%d|maxin=%d",
		req.Kind, hash, req.NMax, req.K, req.Seed, req.Definition, req.Ge11Limit, req.MaxInputs)
	if req.FaultModel != "" {
		key += "|model=" + req.FaultModel
	}
	return key
}

// jobID derives the job's content address from its key.
func jobID(hash string, req *exp.AnalysisRequest) string {
	sum := sha256.Sum256([]byte(jobKey(hash, req)))
	return hex.EncodeToString(sum[:12])
}

// Submit registers an analysis request and returns its job snapshot.
// cached reports that the result was already available — from the
// in-memory LRU or, when a store is configured, the disk result tier (the
// returned info is in a terminal state and Result will serve it
// immediately). An in-flight identical request is joined, not recomputed:
// the returned ID is the existing job's. The request's Workers, Progress
// and Universes fields are ignored — the scheduler owns all three.
func (m *Manager) Submit(c *circuit.Circuit, req exp.AnalysisRequest) (info JobInfo, cached bool, err error) {
	if c == nil {
		return JobInfo{}, false, fmt.Errorf("service: nil circuit")
	}
	if err := m.normalizeSubmission(&req); err != nil {
		return JobInfo{}, false, err
	}
	hash := circuit.Hash(c)
	id := jobID(hash, &req)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobInfo{}, false, ErrShuttingDown
	}
	m.ctr.Submitted++
	if info, cached, done := m.fastPathLocked(id); done {
		m.mu.Unlock()
		return info, cached, nil
	}
	m.mu.Unlock()

	// The disk result tier is consulted with the lock released: the store
	// serializes itself, and a read (plus envelope decode) must not stall
	// every status poll and progress callback on the server.
	disk := m.fetchStoredResult(id)

	m.mu.Lock()
	defer m.mu.Unlock()
	return m.submitLocked(c, hash, id, req, disk)
}

// SubmitSweep registers a grid of result-identity option variants over
// one circuit as individual jobs — every variant lands in the result
// cache under its own job ID, exactly as if submitted alone — and returns
// their snapshots in variant order. All variants are registered before
// any job can retire, so the ones that miss every cache share one
// exhaustive universe construction (the §11 universe flight): the sweep's
// dominant cost is paid once, not once per variant. Partitioned variants
// are rejected — they build per-part universes and have nothing to share.
func (m *Manager) SubmitSweep(c *circuit.Circuit, variants []exp.AnalysisRequest) ([]SubmitResponse, error) {
	if c == nil {
		return nil, fmt.Errorf("service: nil circuit")
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("service: empty sweep")
	}
	norm := make([]exp.AnalysisRequest, len(variants))
	for i, v := range variants {
		if err := m.normalizeSubmission(&v); err != nil {
			return nil, fmt.Errorf("service: sweep variant %d: %w", i, err)
		}
		if v.Kind == exp.PartitionedAnalysis {
			return nil, fmt.Errorf("service: sweep variant %d: partitioned analyses cannot share an exhaustive universe", i)
		}
		norm[i] = v
	}
	hash := circuit.Hash(c)
	ids := make([]string, len(norm))
	for i := range norm {
		ids[i] = jobID(hash, &norm[i])
	}

	// Pre-resolve the disk tier for the variants the in-memory state
	// cannot answer, before the one lock acquisition that registers the
	// whole batch (holding the lock across the batch is what guarantees
	// all variants hold the universe flight before any job can retire).
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	var need []string
	if m.store != nil {
		for _, id := range ids {
			if _, inMemory := m.cache.get(id); inMemory {
				continue
			}
			if _, inFlight := m.inflight[id]; inFlight {
				continue
			}
			need = append(need, id)
		}
	}
	m.mu.Unlock()
	disk := make(map[string]*cacheEntry, len(need))
	for _, id := range need {
		if e := m.fetchStoredResult(id); e != nil {
			disk[id] = e
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctr.Sweeps++
	m.ctr.Submitted += uint64(len(norm))
	out := make([]SubmitResponse, len(norm))
	for i, v := range norm {
		info, cached, err := m.submitLocked(c, hash, ids[i], v, disk[ids[i]])
		if err != nil {
			return nil, err
		}
		out[i] = SubmitResponse{JobInfo: info, Cached: cached}
	}
	return out, nil
}

// normalizeSubmission strips the scheduler-owned fields, fills the
// server's default fault model into requests naming none, and fills
// option defaults, so the request carries exactly its result identity.
func (m *Manager) normalizeSubmission(req *exp.AnalysisRequest) error {
	req.Workers = 0
	req.Progress = nil
	req.Universes = nil
	req.Trace = nil
	if req.FaultModel == "" {
		req.FaultModel = m.defaultModel
	}
	return req.Normalize()
}

// fastPathLocked answers a submission from in-memory state alone: a
// memory cache hit or an in-flight coalesce. done is false when the
// caller must go on to the disk tier and job creation. Callers hold m.mu.
func (m *Manager) fastPathLocked(id string) (info JobInfo, cached bool, done bool) {
	if e, ok := m.cache.get(id); ok {
		m.ctr.CacheHits++
		return e.info, true, true
	}
	if j, ok := m.inflight[id]; ok {
		m.ctr.Coalesced++
		return j.info, false, true
	}
	return JobInfo{}, false, false
}

// submitLocked registers one submission under m.mu: the in-memory fast
// path is re-checked (the lock was released around the disk read, so an
// identical request may have landed), then the pre-fetched disk entry is
// installed, then a new job is created. disk may be nil.
func (m *Manager) submitLocked(c *circuit.Circuit, hash, id string, req exp.AnalysisRequest, disk *cacheEntry) (info JobInfo, cached bool, err error) {
	if m.closed {
		return JobInfo{}, false, ErrShuttingDown
	}
	if info, cached, done := m.fastPathLocked(id); done {
		return info, cached, nil
	}
	if disk != nil {
		m.ctr.StoreHits++
		m.cache.add(disk)
		return disk.info, true, nil
	}
	if m.maxQueue > 0 && len(m.queue) >= m.maxQueue {
		// Shedding happens last: only a request that would actually
		// enqueue new computation is refused; everything answerable from
		// caches or coalescing was already answered above.
		m.ctr.ShedQueue++
		return JobInfo{}, false, ErrOverloaded
	}

	m.ctr.Computed++
	j := &job{
		info: JobInfo{
			ID:      id,
			Kind:    string(req.Kind),
			Circuit: c.Name,
			Hash:    hash,
			Options: req.IdentityOptions(),
			State:   JobQueued,
		},
		circuit: c,
		req:     req,
		done:    make(chan struct{}),
		queued:  obs.StartTimer(),
		rec:     obs.NewRecorder(),
	}
	if req.Kind != exp.PartitionedAnalysis {
		// Flights are keyed per (hash, model): the default model keeps the
		// bare hash so it shares with pre-registry keys, and a second model
		// over the same circuit gets its own universe.
		j.ukey = hash
		if req.FaultModel != "" {
			j.ukey = hash + "|" + req.FaultModel
		}
		m.acquireUniverseLocked(j.ukey)
	}
	m.inflight[id] = j
	m.queue = append(m.queue, j)
	m.publishStateLocked(j) // queued
	m.dispatchLocked()
	return j.info, false, nil
}

// fetchStoredResult reads the disk result tier (no manager lock held —
// the store locks itself). nil on a miss, on malformed metadata, or when
// no store is configured; the caller installs a hit into the LRU under
// m.mu so repeats are plain memory hits.
func (m *Manager) fetchStoredResult(id string) *cacheEntry {
	if m.store == nil {
		return nil
	}
	meta, body, ok := m.store.GetResult(id)
	if !ok {
		return nil
	}
	var info JobInfo
	if err := json.Unmarshal(meta, &info); err != nil || info.State != JobDone || info.ID != id {
		return nil // stale or foreign metadata: recompute honestly
	}
	return &cacheEntry{id: id, info: info, result: body}
}

// dispatchLocked starts queued jobs while worker budget remains: each
// started job is granted max(1, avail/queued) inner workers, the adaptive
// form of the §5 split (with J jobs waiting on an idle server each gets
// ⌊W/min(W,J)⌋; a lone job gets all W; at most min(W, jobs) run at once
// because every running job holds ≥ 1 of the W grants). Callers hold mu.
func (m *Manager) dispatchLocked() {
	for len(m.queue) > 0 {
		avail := m.workers - m.used
		if avail <= 0 {
			return
		}
		grant := avail / len(m.queue)
		if grant < 1 {
			grant = 1
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.used += grant
		if m.used > m.ctr.PeakWorkersInUse {
			m.ctr.PeakWorkersInUse = m.used
		}
		m.met.admitWait.Observe(j.queued.Seconds())
		j.info.State = JobRunning
		j.info.Workers = grant
		m.publishStateLocked(j) // running, with the worker grant
		go m.runJob(j, grant)
	}
}

// runJob computes one job and retires it: the result (success or
// deterministic failure — analyses have no transient errors) moves into
// the LRU and, for successes, the disk result tier; the budget returns to
// the pool, and waiters are released. A panic fails the job alone
// (compute).
func (m *Manager) runJob(j *job, grant int) {
	rec := j.rec // recorder access needs no lock
	req := j.req
	req.Workers = grant
	req.Trace = rec
	req.Progress = func(stage string, done, total int) {
		rec.Progress(stage, done, total)
		m.mu.Lock()
		j.info.Progress = ProgressInfo{Stage: stage, Done: done, Total: total}
		p := j.info.Progress
		m.publishLocked(j, JobEvent{Type: EventProgress, Progress: &p})
		m.mu.Unlock()
	}
	if j.ukey != "" {
		req.Universes = &managerUniverses{m: m, key: j.ukey}
	}
	encoded, err := m.compute(j, req, rec)

	m.mu.Lock()
	m.used -= grant
	delete(m.inflight, j.info.ID)
	j.info.Workers = 0
	if err != nil {
		j.info.State = JobFailed
		j.info.Error = err.Error()
		j.err = err
		m.ctr.Failed++
	} else {
		j.info.State = JobDone
		j.result = encoded
		m.ctr.Completed++
	}
	m.publishStateLocked(j) // terminal: ends every subscriber's stream
	m.cache.add(&cacheEntry{id: j.info.ID, info: j.info, result: encoded, seq: j.seq, done: j.done})
	if j.ukey != "" {
		m.releaseUniverseLocked(j.ukey)
	}
	persistInfo := j.info
	persist := err == nil && m.store != nil
	if persist {
		m.persist.Add(1) // before the job leaves inflight's drain view
	}
	j.circuit = nil // the parsed netlist is no longer needed; let it go
	m.dispatchLocked()
	m.mu.Unlock()

	// Retire the trace: end-to-end latency (submit → terminal state),
	// per-stage histograms from the closed spans, and the span dump behind
	// /trace/{id}. All after the lock — the sinks synchronize themselves.
	m.met.jobDur.Observe(rec.Elapsed().Seconds())
	spans := rec.Finish()
	m.met.observeTrace(spans)
	m.traces.Add(j.info.ID, spans)

	if persist {
		// Failures stay in-memory only: a deterministic failure recomputes
		// identically, and persisting it would just pin a dead slot.
		if meta, merr := json.Marshal(persistInfo); merr == nil {
			m.store.PutResult(persistInfo.ID, meta, encoded) // best effort
		}
		m.persist.Done()
	}
	close(j.done)
}

// compute runs one job's analysis and encodes its document. A panic in
// either, raised on this goroutine or re-raised here by sim.ParallelFor
// from a worker, becomes errJobPanicked instead of ending the process.
func (m *Manager) compute(j *job, req exp.AnalysisRequest, rec *obs.Recorder) (encoded []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("service: job %s panicked: %v\n%s", j.info.ID, r, debug.Stack())
			encoded, err = nil, errJobPanicked
		}
	}()
	doc, err := m.run(j.circuit, req)
	if err != nil {
		return nil, err
	}
	defer rec.Begin("encode")()
	return doc.Encode(), nil
}

// Drain begins a graceful shutdown: new submissions fail with
// ErrShuttingDown, every accepted job (queued or running) completes, and
// pending store writes flush. It returns nil once the manager is idle, or
// the context error if the deadline expires first (abandoned jobs are
// pure recomputable functions — nothing is lost, only uncached).
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for {
		m.mu.Lock()
		n := len(m.inflight)
		m.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The persist flush honors the same deadline: a store write stalled on
	// a dead disk must not hold shutdown past the drain budget.
	flushed := make(chan struct{})
	go func() {
		m.persist.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lookupLocked resolves a job ID for the read paths (Status, Result,
// Events): the in-flight job, else its completed entry in the memory LRU,
// else — with m.mu released for the read — the store's result tier, so a
// finished job whose result left the LRU is still found. The store hit is
// not installed into the LRU; reads do not reorder it. Callers hold m.mu,
// held again on return; ok is false for IDs known nowhere.
func (m *Manager) lookupLocked(id string) (j *job, e *cacheEntry, ok bool) {
	if j, ok := m.inflight[id]; ok {
		return j, nil, true
	}
	if e, ok := m.cache.get(id); ok {
		return nil, e, true
	}
	m.mu.Unlock()
	e = m.fetchStoredResult(id)
	m.mu.Lock()
	return nil, e, e != nil
}

// Status returns the current snapshot of a job: in-flight, or completed
// and still in the result cache or the store. ok is false for IDs the
// manager no longer (or never) knew.
func (m *Manager) Status(id string) (JobInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, e, ok := m.lookupLocked(id)
	switch {
	case j != nil:
		return j.info, true
	case ok:
		return e.info, true
	}
	return JobInfo{}, false
}

// Result returns the encoded result document of a completed job along
// with its snapshot. The bytes are nil unless info.State is JobDone —
// queued, running and failed jobs have no result.
func (m *Manager) Result(id string) (result []byte, info JobInfo, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, e, ok := m.lookupLocked(id)
	switch {
	case j != nil:
		return nil, j.info, true
	case ok:
		return e.result, e.info, true
	}
	return nil, JobInfo{}, false
}

// Wait blocks until the job reaches a terminal state and its result's
// store write has finished, and returns its result bytes (nil with a
// non-nil error for failed jobs).
func (m *Manager) Wait(id string) ([]byte, error) {
	m.mu.Lock()
	j, inflight := m.inflight[id]
	if !inflight {
		e, ok := m.cache.get(id)
		m.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("service: unknown job %s", id)
		}
		if e.done != nil {
			<-e.done // runJob moves the job here before its store write
		}
		if e.info.State == JobFailed {
			return nil, fmt.Errorf("service: job %s failed: %s", id, e.info.Error)
		}
		return e.result, nil
	}
	ch := j.done
	m.mu.Unlock()
	<-ch
	if j.err != nil {
		return nil, j.err
	}
	return j.result, nil
}

// StoreCounters returns the persistent store's tier counters; ok is
// false (with zero counters) when no store is configured.
func (m *Manager) StoreCounters() (store.Counters, bool) {
	if m.store == nil {
		return store.Counters{}, false
	}
	return m.store.Counters(), true
}

// Counters returns a snapshot of the monitoring counters.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.ctr
	c.Queued = len(m.queue)
	c.Running = len(m.inflight) - len(m.queue)
	c.WorkersInUse = m.used
	c.CacheEntries = m.cache.len()
	c.UniverseFlights = len(m.universes)
	return c
}
