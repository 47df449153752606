// Command ndetect-loadgen drives a running ndetectd with an open-loop
// mixed workload and emits an ndetect.load/v1 summary (DESIGN.md §15).
//
// The arrival schedule is precomputed from a seeded source — a pure
// function of (-arrival, -rate, -duration, -seed) — and every request
// fires at its scheduled offset regardless of how earlier requests are
// faring. Latency is measured from the scheduled arrival instant to the
// terminal outcome, so a stalling daemon shows up as queueing delay in
// the histogram instead of silently stretching the gaps between sends
// (coordinated omission). All wall-clock reads live behind obs.Pacer.
//
// Four workload classes exercise the daemon's distinct paths:
//
//	hot     POST /jobs, c17 worstcase — after the first completion this
//	        is a result-cache hit, the latency floor of the serving path
//	cold    POST /jobs, c17 average with a rotating seed — every request
//	        is a fresh analysis, then polled to completion
//	sweep   POST /sweeps, a small seed grid — the fan-out path
//	events  POST /jobs + GET /jobs/{id}/events — an SSE subscriber held
//	        open to the terminal event
//
// A sample of completed jobs is spot-checked for byte identity: the
// served result document must equal the one the in-process driver
// produces for the same request (§7). Any mismatch is a broken
// determinism contract; the process then exits 1. Admission sheds (503
// and 429) are counted separately from errors — under -deliberate-overload
// they are the expected outcome, and the SLO verdict is left to
// `benchjson -slo` over the emitted document.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8417", "ndetectd base URL")
		rate       = flag.Float64("rate", 20, "target arrival rate, requests/second")
		duration   = flag.Duration("duration", 10*time.Second, "arrival window")
		arrival    = flag.String("arrival", obs.ArrivalPoisson, "arrival process: poisson or fixed")
		seed       = flag.Int64("seed", 1, "schedule and mix seed")
		mix        = flag.String("mix", "hot=6,cold=2,sweep=1,events=1", "workload mix as class=weight[,...]")
		spotChecks = flag.Int("spot-check", 8, "byte-identity checks of served results against the in-process driver")
		client     = flag.String("client", "loadgen", "X-Ndetect-Client quota identity (empty: none)")
		tag        = flag.String("tag", "", "tag recorded in the load document")
		out        = flag.String("out", "", "write the ndetect.load/v1 JSON document here (default: stdout)")
		overload   = flag.Bool("deliberate-overload", false, "mark the run as intentionally exceeding admission capacity")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request completion deadline")
		coldK      = flag.Int("cold-k", 20, "K (test sets per n) of the cold class's average analyses — the per-job cost lever for overload runs")
	)
	flag.Parse()

	weights, order, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndetect-loadgen: %v\n", err)
		os.Exit(2)
	}
	schedule, err := obs.ArrivalSchedule(*arrival, *rate, *duration, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndetect-loadgen: %v\n", err)
		os.Exit(2)
	}
	if len(schedule) == 0 {
		fmt.Fprintln(os.Stderr, "ndetect-loadgen: empty schedule (need positive -rate and -duration)")
		os.Exit(2)
	}

	g, err := newGolden()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndetect-loadgen: golden setup: %v\n", err)
		os.Exit(2)
	}
	run := &runner{
		base:    strings.TrimRight(*addr, "/"),
		client:  *client,
		http:    &http.Client{Timeout: *timeout},
		golden:  g,
		checks:  int64(*spotChecks),
		timeout: *timeout,
		coldK:   *coldK,
		stats:   make(map[string]*classStats, len(order)),
	}
	for _, name := range order {
		run.stats[name] = &classStats{latency: obs.NewHistogram(nil)}
	}

	// Assign a class to each arrival up front, from its own seeded stream:
	// the (offset, class) pairs are a pure function of the flags.
	classes := make([]string, len(schedule))
	rng := rand.New(rand.NewSource(*seed + 1))
	total := 0
	for _, name := range order {
		total += weights[name]
	}
	for i := range schedule {
		pick := rng.Intn(total)
		for _, name := range order {
			if pick -= weights[name]; pick < 0 {
				classes[i] = name
				break
			}
		}
		run.stats[classes[i]].scheduled.Add(1)
	}

	pacer := obs.StartPacer()
	var wg sync.WaitGroup
	for i, offset := range schedule {
		wg.Add(1)
		go func(i int, offset time.Duration, class string) {
			defer wg.Done()
			pacer.Sleep(offset)
			run.fire(pacer, offset, class, i)
		}(i, offset, classes[i])
	}
	wg.Wait()
	elapsed := pacer.Elapsed().Seconds()

	doc := obs.LoadDocument{
		Schema:             obs.LoadSchema,
		Tag:                *tag,
		Target:             run.base,
		Arrival:            *arrival,
		Seed:               *seed,
		TargetRPS:          *rate,
		DurationSeconds:    elapsed,
		IdentityChecks:     run.identityChecks.Load(),
		IdentityMismatches: run.identityMismatches.Load(),
		DeliberateOverload: *overload,
	}
	var done int64
	for _, name := range order {
		s := run.stats[name]
		c := obs.LoadClass{
			Name:      name,
			Scheduled: s.scheduled.Load(),
			Requests:  s.requests.Load(),
			Shed:      s.shed.Load(),
			Errors5xx: s.errors5xx.Load(),
			Errors:    s.errors.Load(),
			Latency:   s.latency.Snapshot(),
		}
		c.Stamp()
		done += c.Requests
		doc.Classes = append(doc.Classes, c)
	}
	obs.SortClasses(doc.Classes)
	if elapsed > 0 {
		doc.AchievedRPS = float64(done) / elapsed
	}

	fmt.Fprint(os.Stderr, obs.FormatLoadTable(&doc))
	payload, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndetect-loadgen: encode: %v\n", err)
		os.Exit(2)
	}
	payload = append(payload, '\n')
	if *out == "" {
		os.Stdout.Write(payload)
	} else if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ndetect-loadgen: %v\n", err)
		os.Exit(2)
	}
	if doc.IdentityMismatches > 0 {
		fmt.Fprintf(os.Stderr, "ndetect-loadgen: %d identity mismatches — served results differ from the in-process driver\n",
			doc.IdentityMismatches)
		os.Exit(1)
	}
}

// parseMix parses "hot=6,cold=2,sweep=1,events=1" into weights, keeping
// the declared order for deterministic weighted picks.
func parseMix(spec string) (map[string]int, []string, error) {
	weights := map[string]int{}
	var order []string
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, nil, fmt.Errorf("mix field %q: want class=weight", field)
		}
		switch name {
		case "hot", "cold", "sweep", "events":
		default:
			return nil, nil, fmt.Errorf("unknown class %q (want hot, cold, sweep or events)", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, nil, fmt.Errorf("mix weight %q: want a non-negative integer", val)
		}
		if _, dup := weights[name]; dup {
			return nil, nil, fmt.Errorf("class %q repeated", name)
		}
		if w == 0 {
			continue
		}
		weights[name] = w
		order = append(order, name)
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("empty mix %q", spec)
	}
	return weights, order, nil
}

// classStats accumulates one class's outcome counters; the latency
// histogram is internally atomic.
type classStats struct {
	scheduled, requests, shed, errors5xx, errors atomic.Int64
	latency                                      *obs.Histogram
}

type runner struct {
	base    string
	client  string
	http    *http.Client
	golden  *golden
	timeout time.Duration
	coldK   int
	stats   map[string]*classStats

	checks             int64 // spot-check budget
	spotChecked        atomic.Int64
	identityChecks     atomic.Int64
	identityMismatches atomic.Int64
}

// fire runs one scheduled arrival to its terminal outcome and records
// the open-loop latency: pacer-elapsed minus the scheduled offset.
func (r *runner) fire(p *obs.Pacer, offset time.Duration, class string, i int) {
	s := r.stats[class]
	outcome := r.drive(class, i)
	s.requests.Add(1)
	switch outcome {
	case outcomeOK:
		s.latency.Observe((p.Elapsed() - offset).Seconds())
	case outcomeShed:
		s.shed.Add(1)
	case outcome5xx:
		s.errors5xx.Add(1)
	default:
		s.errors.Add(1)
	}
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
	outcome5xx
	outcomeErr
)

// Per-class request bodies. Seeds rotate per arrival index within
// disjoint ranges so cold/sweep/events never collide on a job identity
// (a collision would coalesce and measure the cache, not the analysis).
func (r *runner) drive(class string, i int) outcome {
	switch class {
	case "hot":
		return r.runJob(`{"benchmark":"c17","analysis":"worstcase"}`, &exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis})
	case "cold":
		seed := int64(1_000 + i)
		body := fmt.Sprintf(`{"benchmark":"c17","analysis":"average","options":{"nmax":2,"k":%d,"seed":%d}}`, r.coldK, seed)
		return r.runJob(body, &exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 2, K: r.coldK, Seed: seed})
	case "sweep":
		seed := int64(1_000_000 + 4*i)
		body := fmt.Sprintf(`{"benchmark":"c17","sweep":"nmax=2;k=20;seed=%d,%d,%d"}`, seed, seed+1, seed+2)
		return r.runSweep(body)
	case "events":
		seed := int64(2_000_000 + i)
		body := fmt.Sprintf(`{"benchmark":"c17","analysis":"average","options":{"nmax":2,"k":20,"seed":%d}}`, seed)
		return r.runEvents(body)
	}
	return outcomeErr
}

func (r *runner) post(path, body string) (*http.Response, error) {
	req, err := http.NewRequest("POST", r.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.client != "" {
		req.Header.Set("X-Ndetect-Client", r.client)
	}
	return r.http.Do(req)
}

// classify maps an HTTP status to a terminal outcome: 503 and 429 are
// admission sheds, other 5xx are server errors, anything else
// unexpected is a client-visible error.
func classify(status int) outcome {
	switch {
	case status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests:
		return outcomeShed
	case status >= 500:
		return outcome5xx
	default:
		return outcomeErr
	}
}

// submitResponse is the slice of the daemon's POST /jobs reply the
// harness needs.
type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// runJob submits one analysis and polls it to completion; golden is the
// in-process identity of the request for spot checks (nil: skip).
func (r *runner) runJob(body string, ident *exp.AnalysisRequest) outcome {
	resp, err := r.post("/jobs", body)
	if err != nil {
		return outcomeErr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return classify(resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return outcomeErr
	}
	return r.pollResult(sub.ID, ident)
}

// pollResult polls GET /jobs/{id}/result until the job is terminal,
// spot-checking the served bytes when a check budget remains.
func (r *runner) pollResult(id string, ident *exp.AnalysisRequest) outcome {
	deadline := time.Now().Add(r.timeout) // ndetect:allow(detrand): harness deadline, not a result input
	for {
		resp, err := r.http.Get(r.base + "/jobs/" + id + "/result")
		if err != nil {
			return outcomeErr
		}
		switch resp.StatusCode {
		case http.StatusOK:
			served, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return outcomeErr
			}
			if ident != nil && r.spotChecked.Add(1) <= r.checks {
				r.check(served, ident)
			}
			return outcomeOK
		case http.StatusAccepted:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if time.Now().After(deadline) { // ndetect:allow(detrand): harness deadline
				return outcomeErr
			}
			time.Sleep(5 * time.Millisecond)
		default:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return classify(resp.StatusCode)
		}
	}
}

// check compares served result bytes against the in-process driver's
// document for the same request — the §7 identity contract, observed
// end to end through the serving stack.
func (r *runner) check(served []byte, ident *exp.AnalysisRequest) {
	r.identityChecks.Add(1)
	want, err := r.golden.bytes(ident)
	if err != nil || !bytes.Equal(served, want) {
		r.identityMismatches.Add(1)
	}
}

// runSweep submits a variant grid and polls every job it fans out to.
func (r *runner) runSweep(body string) outcome {
	resp, err := r.post("/sweeps", body)
	if err != nil {
		return outcomeErr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return classify(resp.StatusCode)
	}
	var sweep struct {
		Jobs []submitResponse `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil || len(sweep.Jobs) == 0 {
		return outcomeErr
	}
	for _, j := range sweep.Jobs {
		if out := r.pollResult(j.ID, nil); out != outcomeOK {
			return out
		}
	}
	return outcomeOK
}

// runEvents submits a job and consumes its SSE stream to the terminal
// state event — the subscriber path under load.
func (r *runner) runEvents(body string) outcome {
	resp, err := r.post("/jobs", body)
	if err != nil {
		return outcomeErr
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return classify(resp.StatusCode)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return outcomeErr
	}
	stream, err := r.http.Get(r.base + "/jobs/" + sub.ID + "/events")
	if err != nil {
		return outcomeErr
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		io.Copy(io.Discard, stream.Body)
		return classify(stream.StatusCode)
	}
	// Scan SSE data lines for the terminal state event. The stream ends
	// server-side after it, so EOF without one is an error.
	dec := newSSEData(stream.Body)
	for {
		data, err := dec.next()
		if err != nil {
			return outcomeErr
		}
		var ev struct {
			Type string `json:"type"`
			Info *struct {
				Status string `json:"status"`
			} `json:"info"`
		}
		if json.Unmarshal(data, &ev) != nil {
			continue
		}
		if ev.Type == "state" && ev.Info != nil {
			switch ev.Info.Status {
			case "done":
				return outcomeOK
			case "failed":
				return outcomeErr
			}
		}
	}
}

// sseData yields the data: payload of each SSE event.
type sseData struct {
	buf  []byte
	body io.Reader
	err  error
}

func newSSEData(body io.Reader) *sseData { return &sseData{body: body} }

func (s *sseData) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(s.buf, '\n'); i >= 0 {
			line := bytes.TrimRight(s.buf[:i], "\r")
			s.buf = s.buf[i+1:]
			if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				return data, nil
			}
			continue
		}
		if s.err != nil {
			return nil, s.err
		}
		chunk := make([]byte, 4096)
		n, err := s.body.Read(chunk)
		s.buf = append(s.buf, chunk[:n]...)
		s.err = err
	}
}

// golden computes reference result documents with the in-process driver
// — the same pure function the daemon runs — memoized per identity.
type golden struct {
	c17 *circuit.Circuit

	mu    sync.Mutex
	cache map[string][]byte
}

func newGolden() (*golden, error) {
	c, err := circuit.EmbeddedBench("c17")
	if err != nil {
		return nil, err
	}
	return &golden{c17: c, cache: make(map[string][]byte)}, nil
}

func (g *golden) bytes(req *exp.AnalysisRequest) ([]byte, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", req.Kind, req.NMax, req.K, req.Seed)
	g.mu.Lock()
	cached, ok := g.cache[key]
	g.mu.Unlock()
	if ok {
		return cached, nil
	}
	doc, err := exp.AnalyzeCircuit(g.c17, *req)
	if err != nil {
		return nil, err
	}
	encoded := doc.Encode()
	g.mu.Lock()
	g.cache[key] = encoded
	g.mu.Unlock()
	return encoded, nil
}
