package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ndetect/internal/fault"
	"ndetect/internal/obs"
	"ndetect/internal/report"
	"ndetect/internal/service"
	"ndetect/internal/store"
)

// The serve-mixed workload: an in-process ndetectd (service.Manager plus
// Server.Handler on loopback, with a store in a fresh directory) driven
// open loop by seeded Poisson arrivals.
const (
	// serveRate is the arrival rate, about a third of the highest rate
	// that met serveSLO on a 2-CPU host at the commit that defined the
	// benchmark.
	serveRate = 50.0
	// serveSLO is the latency limit of slo_ok_ratio on serve-mixed.
	serveSLO = 250 * time.Millisecond
	// serveLRU is the daemon's result LRU: it holds the hit results but
	// not the disk class's, which cycle through more results than it
	// holds between two uses of one.
	serveLRU = 16
	// pollEvery is the client's result poll interval, as in
	// cmd/ndetect-loadgen.
	pollEvery = 5 * time.Millisecond
	// requestTimeout bounds one request; a timeout counts as a failure.
	requestTimeout = 30 * time.Second
)

// Each block of 5 arrivals holds 3 hit, 1 disk and 1 fresh request in a
// seeded order. The shares follow cmd/ndetect-loadgen's default mix,
// hot=6 cold=2 sweep=1 events=1, the daemon traffic CI's SLO step drives:
// hit takes hot's weight and fresh takes cold's. serve-mixed sends no
// sweeps or event streams, and loadgen has no class whose result has left
// the LRU, so disk takes the weight of sweep and events. That assignment
// is an assumption. Blocks of 5 rather than 10 keep two fresh jobs, the
// slowest class and the whole 99th-percentile tail, from arriving back to
// back more often in one seed's schedule than in another's.
var serveBlock = []struct {
	class string
	n     int
}{{"hit", 3}, {"disk", 1}, {"fresh", 1}}

const serveBlockLen = 5

// serveInline is how many requests of each block send their circuit as
// netlist text; the rest name an embedded benchmark. loadgen names its
// circuit in every request, so names dominate. An even split would put
// the blended median on the boundary between the fast inline mode (a hit in
// about 3 ms on a 2-CPU host) and the by-name mode (about 6 ms), where a
// small shift of either mode moves it most.
const serveInline = 1

// serveReq is one scheduled arrival.
type serveReq struct {
	request
	at     time.Duration // scheduled offset from the start of the run
	inline bool          // the circuit travels as netlist text, not by name
}

// arrivals returns round(rate·dur) Poisson arrival offsets in [0, dur):
// a Poisson process conditioned on its count is that many uniform
// instants, so every run of one length holds the same number of requests.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(rate*dur.Seconds() + 0.5)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// serveSchedule generates a run's arrivals from the seed: their times,
// the class of each, which result it asks for, and whether it names its
// circuit or sends it inline.
func serveSchedule(seed int64, dur time.Duration) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	times := arrivals(rng, serveRate, dur)
	// Each class visits the circuits in turn, so every run holds the same
	// mix of circuits per class; the seed picks where each turn starts
	// and the order of each circuit's disk and fresh seeds.
	perm := func(seeds []int64) []int64 {
		out := append([]int64(nil), seeds...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	diskOrder := make([][]int64, len(serveCircuits))
	freshOrder := make([][]int64, len(serveCircuits))
	for c := range serveCircuits {
		diskOrder[c], freshOrder[c] = perm(diskSeeds), perm(freshSeeds)
	}
	turn := map[string]int{}
	for _, c := range serveBlock {
		turn[c.class] = rng.Intn(len(serveCircuits))
	}
	next := func(class string) (circuit string, round int) {
		t := turn[class]
		turn[class]++
		return serveCircuits[t%len(serveCircuits)], t / len(serveCircuits)
	}

	classes := make([]string, 0, serveBlockLen)
	inline := make([]bool, serveBlockLen)
	out := make([]serveReq, len(times))
	for i, at := range times {
		if i%serveBlockLen == 0 {
			classes = classes[:0]
			for _, c := range serveBlock {
				for k := 0; k < c.n; k++ {
					classes = append(classes, c.class)
				}
			}
			for k := range inline {
				inline[k] = k < serveInline
			}
			brng := blockRNG(seed, i/serveBlockLen)
			brng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
			brng.Shuffle(len(inline), func(a, b int) { inline[a], inline[b] = inline[b], inline[a] })
		}
		class := classes[i%serveBlockLen]
		c, round := next(class)
		ci := indexOf(serveCircuits, c)
		var r request
		switch class {
		case "hit":
			r = worstCase(c, "")
			r.class = "hit"
		case "disk":
			r = average("disk", c, 1, serveK, diskOrder[ci][round%len(diskSeeds)])
		default:
			// Fresh results never repeat within a run of up to 38 s at
			// the recorded rate; a longer run would wrap into repeats.
			r = average("fresh", c, 1, serveK, freshOrder[ci][round%len(freshSeeds)])
		}
		out[i] = serveReq{request: r, at: at, inline: inline[i%serveBlockLen]}
	}
	return out
}

// serveBench is one daemon instance plus its client.
type serveBench struct {
	workers int
	corpus  *corpus
	inline  map[string]string // rendered netlist text per circuit
	digests digestTable

	dir    string
	st     *store.Store
	m      *service.Manager
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// setupServe builds the corpus, opens a store in a fresh directory, lets
// an earlier daemon life compute the hit and disk results (and with them
// every circuit's universe) into the store, then starts the serving
// daemon over the same store and loads the hit results into its LRU.
func setupServe(workdir string, workers int, digests digestTable) (*serveBench, error) {
	cp, err := synthesizeCorpus(serveCircuits)
	if err != nil {
		return nil, err
	}
	b := &serveBench{workers: workers, corpus: cp, inline: map[string]string{}, digests: digests}
	for _, name := range serveCircuits {
		b.inline[name] = cp.circuits[name].WriteString()
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(workdir, "serve-"); err != nil {
		return nil, err
	}
	if b.st, err = store.Open(b.dir, store.Options{}); err != nil {
		b.close()
		return nil, err
	}

	prime := service.NewManager(service.Config{Workers: workers, Store: b.st})
	var ids []string
	for _, name := range serveCircuits {
		reqs := []request{worstCase(name, "")}
		for _, s := range diskSeeds {
			reqs = append(reqs, average("disk", name, 1, serveK, s))
		}
		for _, r := range reqs {
			info, _, err := prime.Submit(cp.circuits[name], r.req)
			if err != nil {
				b.close()
				return nil, err
			}
			ids = append(ids, info.ID)
		}
	}
	for _, id := range ids {
		if _, err := prime.Wait(id); err != nil {
			b.close()
			return nil, err
		}
	}
	if err := prime.Drain(context.Background()); err != nil {
		b.close()
		return nil, err
	}

	b.m = service.NewManager(service.Config{Workers: workers, Store: b.st, CacheEntries: serveLRU, MaxQueue: service.DefaultMaxQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: service.NewServer(b.m).Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	// Warm-up: one request per circuit of the hit class, which also loads
	// the hit results into the LRU, and of the fresh class, with a seed no
	// timed request uses. The first jobs a daemon computes can run slower
	// than later ones, and would otherwise land in the timed tail.
	var warm []request
	for _, name := range serveCircuits {
		r := worstCase(name, "")
		r.class = "hit"
		warm = append(warm, r, average("fresh", name, 1, serveK, warmSeed))
	}
	for _, r := range warm {
		rep, err := b.do(context.Background(), serveReq{request: r})
		if err == nil {
			err = digests.check(r.key(), rep.body)
		}
		rep.release()
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm %s: %w", r.key(), err)
		}
	}
	return b, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if b.hs != nil {
		b.hs.Shutdown(ctx)
		<-b.served
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.m != nil {
		b.m.Drain(ctx)
	}
	if b.st != nil {
		b.st.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// bodyPool recycles result buffers. Documents run to hundreds of
// kilobytes, and reading each into a slice grown from scratch would make
// the client, not the daemon, the process's main source of garbage.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// reply is one served request as the client saw it.
type reply struct {
	body     []byte
	buf      *bytes.Buffer // pooled storage behind body, until release
	size     int           // length of the result document
	spans    []obs.Span    // the daemon's trace of a computed job (traced passes)
	id       string
	computed bool          // the submit enqueued a new job (202)
	submit   time.Duration // in POST /jobs
	result   time.Duration // in GET /jobs/{id}/result, polls included
}

func (b *serveBench) body(r serveReq) (string, error) {
	sub := service.SubmitRequest{
		Analysis: string(r.req.Kind),
		Options: report.Options{FaultModel: r.req.FaultModel, NMax: r.req.NMax, K: r.req.K,
			Seed: r.req.Seed, Definition: r.req.Definition, MaxInputs: r.req.MaxInputs},
	}
	if r.inline {
		sub.Format, sub.Name, sub.Source = "net", r.circuit, b.inline[r.circuit]
	} else {
		sub.Benchmark = r.circuit
	}
	buf, err := json.Marshal(sub)
	return string(buf), err
}

// release returns the reply's result buffer to the pool; body is invalid
// afterwards.
func (r *reply) release() {
	if r.buf != nil {
		bodyPool.Put(r.buf)
		r.buf, r.body = nil, nil
	}
}

// do submits one request and polls its result to the last byte. The
// caller releases the reply.
func (b *serveBench) do(ctx context.Context, r serveReq) (reply, error) {
	var out reply
	body, err := b.body(r)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/jobs", strings.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return out, err
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	out.submit = time.Since(t0)
	if err := statusErr(resp.StatusCode, http.StatusOK, http.StatusAccepted); err != nil {
		return out, fmt.Errorf("POST /jobs: %w", err)
	}
	if err != nil {
		return out, fmt.Errorf("POST /jobs: %w", err)
	}
	out.id, out.computed = sub.ID, !sub.Cached

	for {
		t1 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/jobs/"+sub.ID+"/result", nil)
		if err != nil {
			return out, err
		}
		resp, err := b.client.Do(req)
		if err != nil {
			return out, err
		}
		buf := bodyPool.Get().(*bytes.Buffer)
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		out.result += time.Since(t1)
		if err == nil && resp.StatusCode == http.StatusOK {
			out.buf, out.body = buf, buf.Bytes()
			return out, nil
		}
		bodyPool.Put(buf)
		switch {
		case err != nil:
			return out, err
		case resp.StatusCode == http.StatusAccepted:
			select {
			case <-ctx.Done():
				return out, ctx.Err()
			case <-time.After(pollEvery):
			}
		default:
			return out, fmt.Errorf("GET result: %w", statusErr(resp.StatusCode))
		}
	}
}

// errShed marks a request the daemon's admission control refused.
var errShed = errors.New("refused")

func statusErr(code int, want ...int) error {
	for _, w := range want {
		if code == w {
			return nil
		}
	}
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		return fmt.Errorf("%w: HTTP %d", errShed, code)
	}
	return fmt.Errorf("HTTP %d", code)
}

// run drives one open-loop pass: each arrival fires at its scheduled
// instant whatever earlier requests are doing, and its latency runs from
// that instant to its last result byte, so a stall shows as queueing in
// later requests rather than as a thinner schedule.
func (b *serveBench) run(seed int64, dur time.Duration, traced bool) *passResult {
	reqs := serveSchedule(seed, dur)
	res := &passResult{samples: make([]sample, len(reqs)), lagMs: make([]float64, len(reqs))}
	replies := make([]reply, len(reqs))
	errs := make([]error, len(reqs))
	var shapes sync.Map // requestShape → index of the reply that keeps its body
	var before map[string]float64
	if traced {
		before, _ = b.scrape()
	}
	ctr0 := b.m.Counters()

	var wg sync.WaitGroup
	pacer := obs.StartPacer()
	for i, r := range reqs {
		pacer.Sleep(r.at)
		res.lagMs[i] = ms(pacer.Elapsed() - r.at)
		wg.Add(1)
		go func(i int, r serveReq) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			rep, err := b.do(ctx, r)
			s := sample{class: r.class, latency: pacer.Elapsed() - r.at}
			if err == nil {
				err = b.digests.check(r.key(), rep.body)
				s.mismatch = err != nil
			}
			s.ok, s.shed = err == nil, errors.Is(err, errShed)
			rep.size = len(rep.body)
			if traced && s.ok && rep.computed {
				rep.spans, _ = b.m.Trace(rep.id)
			}
			// Bodies are dropped as soon as they are checked; a traced
			// pass keeps one per request shape to read its work counts.
			var kept []byte
			if traced && s.ok {
				if _, seen := shapes.LoadOrStore(requestShape(r.request), i); !seen {
					kept = bytes.Clone(rep.body)
				}
			}
			rep.release()
			rep.body = kept
			res.samples[i], replies[i], errs[i] = s, rep, err
		}(i, r)
	}
	wg.Wait()
	res.wall = pacer.Elapsed()

	ctr := b.m.Counters()
	res.notes = append(res.notes, fmt.Sprintf("daemon: %d memory hits, %d store hits, %d computed, %d shed",
		ctr.CacheHits-ctr0.CacheHits, ctr.StoreHits-ctr0.StoreHits, ctr.Computed-ctr0.Computed,
		ctr.ShedQueue-ctr0.ShedQueue+ctr.ShedQuota-ctr0.ShedQuota))

	for i, r := range reqs {
		if errs[i] != nil {
			res.fail(fmt.Errorf("%s: %w", r.key(), errs[i]))
		}
	}
	if !traced {
		return res
	}
	docs := map[string]*report.Analysis{}
	for _, rep := range replies {
		if rep.body != nil {
			doc := new(report.Analysis)
			if err := json.Unmarshal(rep.body, doc); err != nil {
				res.fail(fmt.Errorf("decode %s: %w", rep.id, err))
				continue
			}
			docs[rep.id] = doc
		}
	}
	res.ledger = newLedger()
	for i, r := range reqs {
		if !res.samples[i].ok {
			continue
		}
		j, _ := shapes.Load(requestShape(r.request))
		doc := docs[replies[j.(int)].id]
		if doc == nil {
			continue
		}
		b.account(res.ledger, r, replies[i], doc, res.samples[i].latency)
	}
	if after, err := b.scrape(); err == nil && before != nil {
		res.extra = daemonMetrics(before, after)
	} else {
		res.fail(fmt.Errorf("scrape /metrics: %v", err))
	}
	return res
}

// requestShape identifies the requests whose documents share every work
// count except their length: the same analysis of the same circuit,
// differing at most in the Procedure 1 seed.
func requestShape(r request) string {
	q := r.req
	return fmt.Sprintf("%s|%s|%s|%d|%d|%d", q.Kind, q.FaultModel, r.circuit, q.NMax, q.K, q.Definition)
}

// account adds one served request to the ledger. The client's calls are
// the request's top-level spans, and what they leave uncovered (generator
// lag, connection waits, poll sleeps) is exp.untraced_ms. A computed job's
// analysis brackets, read back from the daemon's own trace of the job, are
// nested inside those calls and reported beside them.
func (b *serveBench) account(l *ledger, r serveReq, rep reply, doc *report.Analysis, latency time.Duration) {
	self := map[string]time.Duration{"service.submit": rep.submit, "service.result": rep.result}
	built := false
	for _, sp := range rep.spans {
		if sp.Total == 3 && sp.Done == 0 {
			built = true
		}
		if sp.Total != 0 {
			continue // progress-derived; the brackets below time the same work
		}
		layer, ok := bracketLayer[sp.Name]
		if sp.Name == "encode" {
			layer, ok = "report.encode", true
		}
		if ok {
			l.nested[layer] += time.Duration(sp.DurNs)
		}
	}
	space, _ := fault.SpaceSize(fault.Default(), b.corpus.circuits[r.circuit])
	l.add(latency, self, workCounts(doc, rep.size, built, space))
}

// scrape reads the daemon's /metrics exposition into series → value.
func (b *serveBench) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// daemonMetrics derives the service and store layer metrics from two
// /metrics scrapes around a pass.
func daemonMetrics(before, after map[string]float64) map[string]float64 {
	d := func(series string) float64 { return after[series] - before[series] }
	meanMs := func(name, labels string) float64 {
		n := d(name + "_count" + labels)
		if n == 0 {
			return 0
		}
		return 1000 * d(name+"_sum"+labels) / n
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	const storeOp = "ndetectd_store_op_duration_seconds"
	storeHits := d("ndetectd_store_results_hits_total") + d("ndetectd_store_universes_hits_total")
	storeMisses := d("ndetectd_store_results_misses_total") + d("ndetectd_store_universes_misses_total")
	return map[string]float64{
		"service.queue_wait_ms":   meanMs("ndetectd_admission_wait_seconds", ""),
		"service.job_ms":          meanMs("ndetectd_job_duration_seconds", ""),
		"service.cache_hit_ratio": ratio(d("ndetectd_jobs_cache_hits_total"), d("ndetectd_jobs_submitted_total")),
		"service.computed":        d("ndetectd_jobs_computed_total"),
		"service.shed":            d("ndetectd_shed_queue_total") + d("ndetectd_shed_quota_total"),
		"store.result_get_ms":     meanMs(storeOp, `{op="results_get"}`),
		"store.result_put_ms":     meanMs(storeOp, `{op="results_put"}`),
		"store.universe_get_ms":   meanMs(storeOp, `{op="universes_get"}`),
		"store.hit_ratio":         ratio(storeHits, storeHits+storeMisses),
		"store.bytes_written":     d("ndetectd_store_bytes"),
	}
}

// frontEnd times synthesis, parsing and hashing on the served circuits:
// every named submit re-synthesizes, every inline one parses, and every
// submit hashes.
func (b *serveBench) frontEnd() map[string]float64 { return b.corpus.frontEndMs(serveCircuits) }

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}
