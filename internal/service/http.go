package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/kiss"
	"ndetect/internal/obs"
	"ndetect/internal/report"
	"ndetect/internal/store"
	"ndetect/internal/synth"
)

// The HTTP API — JSON over net/http, no dependencies beyond the standard
// library (DESIGN.md §10):
//
//	POST /jobs                 enqueue an analysis; returns the job snapshot
//	                           (200 + cached:true when already computed,
//	                           202 otherwise — identical in-flight requests
//	                           coalesce onto one job ID)
//	GET  /jobs/{id}            job status with live progress
//	GET  /jobs/{id}/result     the result document (202 + status while the
//	                           job is still queued/running)
//	GET  /jobs/{id}/events     the job's event stream as Server-Sent
//	                           Events: a state snapshot on connect, then
//	                           every state transition and progress update,
//	                           ending with the terminal state (§14)
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text exposition: counters,
//	                           gauges and latency histograms
//
// The POST body names a circuit — inline source for the existing parsers
// ("net", "bench" or "kiss2" format) or an embedded benchmark — plus the
// analysis kind and its result-identity options:
//
//	{"benchmark": "bbtas", "analysis": "worstcase"}
//	{"format": "bench", "name": "c17", "source": "INPUT(1)...",
//	 "analysis": "average", "options": {"nmax": 10, "k": 1000, "seed": 1}}

// maxRequestBytes bounds a POST body; netlists are text and the widest
// supported circuits are far below this.
const maxRequestBytes = 32 << 20

// CircuitRef names the circuit of a request: an embedded benchmark, or
// inline source for one of the existing parsers. Its fields inline into
// the JSON of every request shape that carries a circuit.
type CircuitRef struct {
	// Benchmark names an embedded circuit: an FSM surrogate from the
	// benchmark suite (synthesized with the default options) or an ISCAS
	// .bench sample. Mutually exclusive with Source.
	Benchmark string `json:"benchmark,omitempty"`

	// Source is inline circuit text; Format selects the parser: "net"
	// (default), "bench" (ISCAS-85/89), or "kiss2" (an FSM, synthesized
	// with the default options). Name labels the circuit (presentation
	// only — it does not enter the job identity).
	Format string `json:"format,omitempty"`
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
}

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	CircuitRef

	// Analysis is "worstcase" (default), "average" or "partitioned".
	Analysis string `json:"analysis,omitempty"`
	// Options are the result-identity options of DESIGN.md §7; fields the
	// analysis kind ignores are normalized away.
	Options report.Options `json:"options"`
}

// SweepVariant is one grid point of a POST /sweeps body.
type SweepVariant struct {
	// Analysis is "worstcase" (default) or "average" — partitioned
	// analyses share no exhaustive universe and are rejected.
	Analysis string `json:"analysis,omitempty"`
	// Options are the variant's result-identity options.
	Options report.Options `json:"options"`
}

// SweepRequest is the POST /sweeps body: one circuit plus a variant grid,
// given either explicitly (variants) or as a grid specification string
// (sweep, the exp.ParseSweep format, e.g. "seed=1..5;def=1,2").
type SweepRequest struct {
	CircuitRef

	Sweep    string         `json:"sweep,omitempty"`
	Variants []SweepVariant `json:"variants,omitempty"`
}

// SweepResponse is the POST /sweeps reply: per-variant job snapshots in
// variant order. Each job is an ordinary /jobs citizen — poll and fetch
// it by ID exactly as if it had been submitted alone.
type SweepResponse struct {
	Jobs []SubmitResponse `json:"jobs"`
}

// SubmitResponse is the POST /jobs reply: the job snapshot plus whether
// the result was already available.
type SubmitResponse struct {
	JobInfo
	Cached bool `json:"cached"`
}

// Server exposes a Manager over HTTP.
type Server struct {
	m *Manager
}

// NewServer wraps a manager.
func NewServer(m *Manager) *Server { return &Server{m: m} }

// Handler returns the route table. Every route is wrapped in a
// per-class latency recorder (obs.TimeHandler — the clock stays in obs),
// feeding the ndetectd_http_request_duration_seconds histogram family.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /jobs", s.timed("submit", s.handleSubmit))
	mux.Handle("POST /sweeps", s.timed("sweep", s.handleSweep))
	mux.Handle("GET /jobs/{id}", s.timed("status", s.handleStatus))
	mux.Handle("GET /jobs/{id}/result", s.timed("result", s.handleResult))
	mux.Handle("GET /jobs/{id}/events", s.timed("events", s.handleEvents))
	mux.Handle("GET /healthz", s.timed("healthz", s.handleHealthz))
	mux.Handle("GET /metrics", s.timed("metrics", s.handleMetrics))
	return mux
}

// timed wraps one route with the per-class request-latency recorder.
func (s *Server) timed(class string, h http.HandlerFunc) http.Handler {
	return obs.TimeHandler(func(_ int, seconds float64) {
		s.m.met.httpDur.Observe(class, seconds)
	}, h)
}

// clientKey identifies the quota bucket of a request: the value of the
// X-Ndetect-Client header when the client names itself (the deployment
// hands quota identities out with API endpoints), else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Ndetect-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit runs the per-client quota check for a submission route: on a
// shed it writes the 429 itself and reports false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	ok, retry := s.m.AdmitClient(clientKey(r))
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"client quota exceeded; retry after %ds (key it with the X-Ndetect-Client header)", retry)
	}
	return ok
}

// DebugHandler returns the introspection routes the daemon serves on its
// separate -debug-addr listener (never on the public API address):
// net/http/pprof under /debug/pprof/, and /trace/{id} dumping a job's
// spans as JSON — live snapshot for in-flight jobs, retained trace for
// recently completed ones.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	return mux
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans, ok := s.m.Trace(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no trace for job %s (traces are bounded FIFO)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, spans)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing useful to do with a write error mid-response
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var sub SubmitRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	c, err := loadSubmittedCircuit(&sub.CircuitRef)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, err := analysisRequest(sub.Analysis, sub.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	info, cached, err := s.m.Submit(c, req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if cached {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{JobInfo: info, Cached: cached})
}

// handleSweep enqueues a variant grid over one circuit: 200 when every
// variant was already computed, 202 otherwise.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var sub SweepRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	c, err := loadSubmittedCircuit(&sub.CircuitRef)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var variants []exp.AnalysisRequest
	switch {
	case sub.Sweep != "" && len(sub.Variants) == 0:
		if variants, err = exp.ParseSweep(sub.Sweep); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case len(sub.Variants) > 0 && sub.Sweep == "":
		for _, v := range sub.Variants {
			req, err := analysisRequest(v.Analysis, v.Options)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			variants = append(variants, req)
		}
	default:
		writeError(w, http.StatusBadRequest, "specify exactly one of sweep or variants")
		return
	}

	jobs, err := s.m.SubmitSweep(c, variants)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	code := http.StatusOK
	for _, j := range jobs {
		if !j.Cached {
			code = http.StatusAccepted
			break
		}
	}
	writeJSON(w, code, SweepResponse{Jobs: jobs})
}

// writeSubmitError maps submission failures: a shed (queue full) or
// draining server is 503 with a Retry-After estimate — the explicit
// backpressure contract of §15, never a silent collapse — anything else
// is the caller's request.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShuttingDown) {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.m.RetryAfter()))
	}
	writeError(w, code, "%v", err)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	info, ok := s.m.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s (completed jobs expire from the result cache)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	result, info, ok := s.m.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s (completed jobs expire from the result cache)", r.PathValue("id"))
		return
	}
	switch info.State {
	case JobDone:
		// The cached bytes verbatim: this response is the byte-identity
		// contract between cold runs, cache hits, and cmd/ndetect -json.
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case JobFailed:
		writeError(w, http.StatusUnprocessableEntity, "job %s failed: %s", info.ID, info.Error)
	default:
		writeJSON(w, http.StatusAccepted, info) // still queued/running: poll again
	}
}

// handleEvents streams one job's event stream as Server-Sent Events: a
// "state" snapshot on connect (replay-from-snapshot — late subscribers
// need no event history), then each published event in order, ending
// with the terminal state event. Already-completed jobs get the terminal
// snapshot alone. The SSE id: field carries the event sequence number.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, sub, ok := s.m.Events(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s (completed jobs expire from the result cache)", id)
		return
	}
	defer s.m.Unsubscribe(id, sub) // nil-safe
	obs.SSEHeaders(w.Header())
	w.WriteHeader(http.StatusOK)
	fl, canFlush := w.(http.Flusher)
	write := func(ev JobEvent) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if err := obs.WriteSSEEvent(w, ev.Seq, ev.Type, data); err != nil {
			return err
		}
		if canFlush {
			fl.Flush()
		}
		return nil
	}
	if err := write(snap); err != nil || sub == nil || snap.Terminal() {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-sub.Notify():
		}
		for _, ev := range sub.Drain() {
			if err := write(ev); err != nil || ev.Terminal() {
				return
			}
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// MetricsContentType is the Prometheus text exposition format version
// this endpoint speaks.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

func tierExposition(e *obs.Exposition, tier string, tc store.TierCounters) {
	e.Counter("ndetectd_store_"+tier+"_hits_total", tier+" tier hits", tc.Hits)
	e.Counter("ndetectd_store_"+tier+"_misses_total", tier+" tier misses", tc.Misses)
	e.Counter("ndetectd_store_"+tier+"_evictions_total", tier+" tier evictions", tc.Evictions)
	e.Gauge("ndetectd_store_"+tier+"_bytes", tier+" tier bytes on disk", tc.Bytes)
	e.Gauge("ndetectd_store_"+tier+"_files", tier+" tier artifact count", int64(tc.Files))
}

// handleMetrics renders the Prometheus text exposition. Every metric name
// and sample format predating the §14 observability layer is preserved
// verbatim (only HELP/TYPE headers were added around them — scrapers and
// greps keyed on `name value` lines keep working); the histograms and
// derived gauges are additive. The GET pattern also matches HEAD, whose
// body net/http discards — a scraper's probe costs headers only.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c := s.m.Counters()
	sc, _ := s.m.StoreCounters() // zeros when no store is configured
	w.Header().Set("Content-Type", MetricsContentType)
	w.Header().Set("Cache-Control", "no-store")
	e := obs.NewExposition(w)

	e.Counter("ndetectd_jobs_submitted_total", "analysis submissions accepted", c.Submitted)
	e.Counter("ndetectd_jobs_cache_hits_total", "submissions answered from the in-memory result LRU", c.CacheHits)
	e.Counter("ndetectd_jobs_store_hits_total", "submissions answered from the disk result tier", c.StoreHits)
	e.Counter("ndetectd_jobs_coalesced_total", "submissions joined to an identical in-flight job", c.Coalesced)
	e.Counter("ndetectd_jobs_computed_total", "jobs actually enqueued (cache misses)", c.Computed)
	e.Counter("ndetectd_jobs_completed_total", "jobs completed successfully", c.Completed)
	e.Counter("ndetectd_jobs_failed_total", "jobs failed deterministically", c.Failed)
	e.Counter("ndetectd_sweeps_total", "sweep submissions accepted", c.Sweeps)
	e.Counter("ndetectd_shed_queue_total", "submissions shed at the accept-queue bound (503)", c.ShedQueue)
	e.Counter("ndetectd_shed_quota_total", "submissions shed by a per-client quota (429)", c.ShedQuota)
	e.Gauge("ndetectd_queue_limit", "configured accept-queue bound (0 = unbounded)", int64(c.QueueLimit))
	e.Gauge("ndetectd_jobs_queued", "jobs waiting for a worker grant", int64(c.Queued))
	e.Gauge("ndetectd_jobs_running", "jobs currently computing", int64(c.Running))
	e.Gauge("ndetectd_jobs_inflight", "jobs queued or running", int64(c.Queued+c.Running))
	e.Gauge("ndetectd_workers_in_use", "inner worker grants currently out", int64(c.WorkersInUse))
	e.Gauge("ndetectd_workers_total", "the server-wide worker budget W", int64(c.WorkersTotal))
	e.Gauge("ndetectd_cache_entries", "results in the in-memory LRU", int64(c.CacheEntries))
	e.Gauge("ndetectd_cache_capacity", "in-memory result LRU capacity", int64(c.CacheCapacity))
	e.Gauge("ndetectd_universe_flights", "live shared-universe flights", int64(c.UniverseFlights))
	e.Gauge("ndetectd_events_streaming", "open SSE event subscriptions", s.m.met.streaming.Value())
	e.Gauge("ndetectd_store_bytes", "artifact bytes on disk across tiers", sc.Bytes)
	tierExposition(e, "results", sc.Results)
	tierExposition(e, "universes", sc.Universes)

	e.Histogram("ndetectd_admission_wait_seconds",
		"time jobs spend in the accept queue, submit to worker grant", s.m.met.admitWait.Snapshot())
	e.HistogramVec("ndetectd_http_request_duration_seconds",
		"request latency by route class (events = SSE stream lifetime)", "class", s.m.met.httpDur)
	e.Histogram("ndetectd_job_duration_seconds",
		"end-to-end job latency, submit to terminal state", s.m.met.jobDur.Snapshot())
	e.HistogramVec("ndetectd_stage_duration_seconds",
		"per-stage job latency by span name", "stage", s.m.met.stageDur)
	e.HistogramVec("ndetectd_store_op_duration_seconds",
		"artifact store I/O latency by tier and operation", "op", s.m.met.storeDur)
}

// loadSubmittedCircuit resolves the request's circuit: an embedded
// benchmark by name, or inline source through the parser Format selects.
func loadSubmittedCircuit(sub *CircuitRef) (*circuit.Circuit, error) {
	switch {
	case sub.Benchmark != "" && sub.Source == "":
		return bench.CircuitByName(sub.Benchmark)
	case sub.Source != "" && sub.Benchmark == "":
		name := sub.Name
		if name == "" {
			name = "circuit"
		}
		switch sub.Format {
		case "net", "":
			return circuit.ParseString(sub.Source)
		case "bench":
			return circuit.ParseBenchString(name, sub.Source)
		case "kiss2":
			m, err := kiss.ParseString(name, sub.Source)
			if err != nil {
				return nil, err
			}
			r, err := synth.Synthesize(m, bench.DefaultOptions())
			if err != nil {
				return nil, err
			}
			return r.Circuit, nil
		default:
			return nil, fmt.Errorf("unknown format %q (want net, bench or kiss2)", sub.Format)
		}
	default:
		return nil, fmt.Errorf("specify exactly one of benchmark or source")
	}
}

// analysisRequest maps a submitted kind + options onto the driver
// request (normalized later by Submit).
func analysisRequest(analysis string, options report.Options) (exp.AnalysisRequest, error) {
	kind := exp.AnalysisKind(analysis)
	if analysis == "" {
		kind = exp.WorstCaseAnalysis
	}
	switch kind {
	case exp.WorstCaseAnalysis, exp.AverageAnalysis, exp.PartitionedAnalysis:
	default:
		return exp.AnalysisRequest{}, fmt.Errorf("unknown analysis %q (want worstcase, average or partitioned)", analysis)
	}
	return exp.AnalysisRequest{
		Kind:       kind,
		FaultModel: options.FaultModel,
		NMax:       options.NMax,
		K:          options.K,
		Seed:       options.Seed,
		Definition: options.Definition,
		Ge11Limit:  options.Ge11Limit,
		MaxInputs:  options.MaxInputs,
	}, nil
}
