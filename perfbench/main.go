// Command perfbench is the repository's benchmark. One process runs one
// named workload of analysis requests generated from a seed, checks the
// bytes of every result against a committed reference digest, and prints
// its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload worstcase-tail --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it runs the same request list untraced and then traced,
// prints the tracing overhead, and reports the per-layer metrics of the
// traced pass. A request that fails, other than by a daemon's 503/429
// shed, or whose bytes differ from its reference digest makes the command
// exit 1. perfbench/README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

var workloadNames = []string{"worstcase-tail", "average-warm", "fault-models", "serve-mixed"}

// sloLimit is each workload's latency limit for slo_ok_ratio. The compute
// limits sit well above the slowest request of each pool; serve-mixed's is
// its daemon latency objective.
var sloLimit = map[string]time.Duration{
	"worstcase-tail": 5 * time.Second,
	"average-warm":   5 * time.Second,
	"fault-models":   3 * time.Second,
	"serve-mixed":    serveSLO,
}

// nominalBlock is the duration of one request block on a 2-CPU host. A
// traced compute run pairs each block untraced and traced, for a fixed
// number of pairs derived from it and --seconds, so its request list,
// and with it every work count, depends on the seed alone.
var nominalBlock = map[string]time.Duration{
	"worstcase-tail": 6 * time.Second,
	"average-warm":   3 * time.Second,
	"fault-models":   2 * time.Second,
}

// setupRepeats is how many set-ups an untraced run times, its own and the
// rest in fresh processes; setup_s is their median.
const setupRepeats = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// instance is one set-up workload.
type instance interface {
	// run executes one pass over the seed's request list: whole blocks
	// for about dur on a compute workload, the arrival schedule spanning
	// dur on serve-mixed.
	run(seed int64, dur time.Duration, traced bool) *passResult
	// frontEnd times synthesis, parsing and hashing of the workload's
	// circuits.
	frontEnd() map[string]float64
	close()
}

// passResult is what one pass measured.
type passResult struct {
	samples []sample
	wall    time.Duration
	ledger  *ledger            // traced passes only
	extra   map[string]float64 // daemon-side layer metrics (serve-mixed)
	lagMs   []float64          // generator lateness per arrival (serve-mixed)
	notes   []string
	errs    []error // the first few failures
	nfail   int
}

func (p *passResult) fail(err error) {
	p.nfail++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// tally counts the outcomes of a pass's requests.
type tally struct{ attempted, ok, failed, shed, mismatched int }

func (p *passResult) counts() tally {
	var t tally
	for _, s := range p.samples {
		t.attempted++
		switch {
		case s.ok:
			t.ok++
		case s.shed:
			t.shed++
			t.failed++
		case s.mismatch:
			t.mismatched++
			t.failed++
		default:
			t.failed++
		}
	}
	return t
}

// correct reports whether every request of the pass succeeded, apart
// from 503/429 sheds. An error, a timeout or a digest mismatch makes the
// run incorrect: no request of a compute workload may fail, and a daemon
// may refuse work under load but never fail it.
func (t tally) correct() bool { return t.failed == t.shed }

// lagP99 returns the 99th percentile of the generator's lateness in ms.
func (p *passResult) lagP99() float64 {
	lag := append([]float64(nil), p.lagMs...)
	sort.Float64s(lag)
	return quantile(lag, 0.99)
}

func runtimeDeltas(m0, m1 *runtime.MemStats, requests int) map[string]float64 {
	if requests == 0 {
		return nil
	}
	n := float64(requests)
	return map[string]float64{
		"runtime.alloc_mb":    float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n,
		"runtime.gc_pause_ms": float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / n,
	}
}

func setup(workload, workdir string, workers int, digests digestTable) (instance, error) {
	if workload == "serve-mixed" {
		return setupServe(workdir, workers, digests)
	}
	return setupCompute(workload, workers, digests)
}

// traceBlocks returns the number of block pairs that fill about dur.
func traceBlocks(workload string, dur time.Duration) int {
	pair := 2 * nominalBlock[workload]
	n := int((dur + pair/2) / pair)
	if n < 1 {
		n = 1
	}
	return n
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: worstcase-tail, average-warm, fault-models or serve-mixed")
		seed     = fs.Int64("seed", 1, "seed of the request list")
		seconds  = fs.Int("seconds", 10, "how long one pass measures")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics of an untraced run, 1 = per-layer metrics of a traced run")
		digestsF = fs.String("digests", "", "reference digest table (default: the committed perfbench/digests.txt)")
		writeF   = fs.String("write-digests", "", "compute the reference digest of every request at one worker, write the table here and exit")
		workdir  = fs.String("workdir", ".bench_build/tmp", "directory for serve-mixed's artifact store")
		setupF   = fs.Bool("setup-only", false, "set the workload up once, print the seconds from process start and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeF != "" {
		if err := writeDigests(*writeF, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := sloLimit[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	// The §5 worker budget is one worker per CPU, as the CLI and the
	// daemon default to.
	workers := runtime.GOMAXPROCS(0)
	digests, err := loadDigests(*digestsF)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: digests:", err)
		return 1
	}
	if *setupF {
		b, err := setup(*workload, *workdir, workers, digests)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		secs := time.Since(processStart).Seconds()
		b.close()
		fmt.Fprintln(stdout, secs)
		return 0
	}
	dur := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stderr, "perfbench %s seed %d, %ds, trace %d, GOMAXPROCS and workers %d\n",
		*workload, *seed, *seconds, *trace, workers)

	var res *result
	if *trace == 0 {
		setupArgs := []string{"--setup-only", "--workload", *workload, "--workdir", *workdir}
		if *digestsF != "" {
			setupArgs = append(setupArgs, "--digests", *digestsF)
		}
		res, err = untraced(*workload, *workdir, setupArgs, *seed, dur, workers, digests, stderr)
	} else {
		res, err = traced(*workload, *workdir, *seed, dur, workers, digests, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: requests failed or their bytes differ from the reference digests")
		return 1
	}
	return 0
}

// freshSetup runs this program with setupArgs (--setup-only) in a new
// process and returns the set-up time that process reports. A set-up in
// a fresh process pays everything a real `ndetect` process pays, from
// process start and FSM generation on; a second set-up in one process
// would find the benchmark registry already built.
func freshSetup(setupArgs []string, log io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, setupArgs...)
	cmd.Stderr = log
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) == 0 {
		return 0, fmt.Errorf("set-up process printed no time")
	}
	return strconv.ParseFloat(fields[len(fields)-1], 64)
}

// untraced sets up, measures one pass with tracing off and returns the
// end-to-end metrics. setup_s is the median of setupRepeats set-ups, each
// timed from the start of its process to the point where the first
// request can be timed: this process's own, then the rest in fresh
// processes while this one waits.
func untraced(workload, workdir string, setupArgs []string, seed int64, dur time.Duration, workers int, digests digestTable, log io.Writer) (*result, error) {
	b, err := setup(workload, workdir, workers, digests)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	setups := []float64{time.Since(processStart).Seconds()}
	for len(setups) < setupRepeats {
		s, err := freshSetup(setupArgs, log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	cpu0 := cpuSeconds()
	p := b.run(seed, dur, false)
	busy := (cpuSeconds() - cpu0) / p.wall.Seconds()
	t := p.counts()
	attempted, failed := t.attempted, t.failed
	lat := latenciesMs(p.samples, "")
	var inSLO int
	for _, s := range p.samples {
		if s.ok && s.latency <= sloLimit[workload] {
			inSLO++
		}
	}
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"requests_per_s": {rate(p), "1/s"},
		"latency_p50_ms": {percentileMs(p.samples, 0.5), "ms"},
		"latency_p99_ms": {percentileMs(p.samples, 0.99), "ms"},
		"slo_ok_ratio":   {float64(inSLO) / float64(max(attempted, 1)), "ratio"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}

	fmt.Fprintf(log, "set-up %.3fs (median of this process's and fresh processes': %v)\n", m["setup_s"].Value, setups)
	fmt.Fprintf(log, "%d requests in %.3fs, %d failed (failed_ratio %.4f): %d shed, %d digest mismatches\n",
		attempted, p.wall.Seconds(), failed, float64(failed)/float64(max(attempted, 1)), t.shed, t.mismatched)
	fmt.Fprintf(log, "latency p50 %.3f ms, p99 %.3f ms over %d samples (run-wide: p50 %.3f ms, p99 %.3f ms with %d samples beyond it)\n",
		m["latency_p50_ms"].Value, m["latency_p99_ms"].Value, len(lat), quantile(lat, 0.5), quantile(lat, 0.99), len(lat)/100)
	printClasses(log, p.samples)
	fmt.Fprintf(log, "process CPU %.2f of %d CPUs busy during the pass\n", busy, runtime.GOMAXPROCS(0))
	if len(p.lagMs) > 0 {
		fmt.Fprintf(log, "generator lag p99 %.3f ms\n", p.lagP99())
		if p.lagP99() > 10 {
			fmt.Fprintln(log, "WARNING: the load generator fell behind its schedule; latencies of this run are suspect")
		}
	}
	printFailures(log, p)
	for _, name := range []string{"setup_s", "requests_per_s", "latency_p50_ms", "latency_p99_ms", "slo_ok_ratio", "peak_rss_mb"} {
		fmt.Fprintf(log, "  %-16s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	// Reported here only: failed_ratio is the result line's failed over
	// attempted, and the class medians exist on serve-mixed alone.
	fmt.Fprintf(log, "  %-16s %14.4f %s\n", "failed_ratio", float64(failed)/float64(max(attempted, 1)), "ratio")
	if workload == "serve-mixed" {
		for _, class := range []string{"hit", "disk", "fresh"} {
			fmt.Fprintf(log, "  %-16s %14.4f ms\n", class+"_p50_ms", quantile(latenciesMs(p.samples, class), 0.5))
		}
	}
	return &result{Correct: t.correct(), Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traced runs the request list untraced and traced, prints the tracing
// overhead and returns the per-layer metrics of the traced pass. Compute
// workloads run each block untraced and then traced; serve-mixed runs two
// whole passes of half of dur each. Either way the run measures about dur.
func traced(workload, workdir string, seed int64, dur time.Duration, workers int, digests digestTable, log io.Writer) (*result, error) {
	b, err := setup(workload, workdir, workers, digests)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var ref, p *passResult
	var m0, m1 runtime.MemStats
	covered := 0 // requests run between the two MemStats reads
	if cb, ok := b.(*computeBench); ok {
		defer b.close()
		runtime.ReadMemStats(&m0)
		ref, p = cb.runPaired(seed, traceBlocks(workload, dur))
		runtime.ReadMemStats(&m1)
		covered = len(ref.samples)
	} else {
		// An open-loop pass leaves its results in the daemon, so the
		// traced pass gets a set-up of its own.
		ref = b.run(seed, dur/2, false)
		b.close()
		if b, err = setup(workload, workdir, workers, digests); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer b.close()
		runtime.ReadMemStats(&m0)
		p = b.run(seed, dur/2, true)
		runtime.ReadMemStats(&m1)
	}
	covered += len(p.samples)

	t, refT := p.counts(), ref.counts()
	values := map[string]float64{}
	for k, v := range p.ledger.layersMs() {
		values[k] = v
	}
	for k, v := range p.ledger.counts {
		values[k] = p.ledger.perRequest(v)
	}
	for _, extra := range []map[string]float64{b.frontEnd(), runtimeDeltas(&m0, &m1, covered), p.extra} {
		for k, v := range extra {
			values[k] = v
		}
	}
	if workload == "serve-mixed" {
		for _, class := range []string{"hit", "disk", "fresh"} {
			values["service."+class+"_p50_ms"] = quantile(latenciesMs(p.samples, class), 0.5)
		}
		values["loadgen.lag_p99_ms"] = p.lagP99()
	}

	m := map[string]metric{}
	for _, pl := range perLayer {
		m[pl.name] = metric{values[pl.name], pl.unit}
	}

	refRate := rate(ref)
	trRate := rate(p)
	fmt.Fprintf(log, "traced pass: %d requests, %d failed: %d shed, %d digest mismatches\n", t.attempted, t.failed, t.shed, t.mismatched)
	fmt.Fprintf(log, "untraced pass: %d requests, %d failed: %d shed, %d digest mismatches\n", refT.attempted, refT.failed, refT.shed, refT.mismatched)
	fmt.Fprintf(log, "tracing overhead: %.4f req/s untraced, %.4f req/s traced (%+.2f%%)\n",
		refRate, trRate, 100*(refRate-trRate)/refRate)
	if workload != "serve-mixed" {
		var sum float64
		for k, v := range p.ledger.layersMs() {
			if k != "exp.request_ms" {
				sum += v
			}
		}
		fmt.Fprintf(log, "layer self times + exp.untraced_ms = %.4f ms, exp.request_ms = %.4f ms\n", sum, values["exp.request_ms"])
	}
	printFailures(log, p)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-26s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return &result{Correct: t.correct() && refT.correct(), Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func rate(p *passResult) float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.counts().ok) / p.wall.Seconds()
}

func printClasses(log io.Writer, samples []sample) {
	n := map[string]int{}
	var classes []string
	for _, s := range samples {
		if n[s.class] == 0 {
			classes = append(classes, s.class)
		}
		n[s.class]++
	}
	sort.Strings(classes)
	for _, c := range classes {
		lat := latenciesMs(samples, c)
		fmt.Fprintf(log, "  class %-12s %5d requests, p50 %.3f ms over %d correct\n", c, n[c], quantile(lat, 0.5), len(lat))
	}
}

func printFailures(log io.Writer, p *passResult) {
	for _, note := range p.notes {
		fmt.Fprintln(log, note)
	}
	for _, err := range p.errs {
		fmt.Fprintln(log, "failure:", err)
	}
	if p.nfail > len(p.errs) {
		fmt.Fprintf(log, "... and %d more failures\n", p.nfail-len(p.errs))
	}
}

// perLayer lists the traced run's metrics; perfbench/README.md defines
// each. Layer times are mean self time per request; counts and bytes are
// per request unless README.md says per run. A layer a workload does not
// exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"circuit.canonicalize_ms", "ms"},
	{"sim.simulate_ms", "ms"},
	{"sim.target_tsets_ms", "ms"},
	{"sim.untargeted_tsets_ms", "ms"},
	{"sim.tset_bytes", "bytes"},
	{"ndetect.assemble_ms", "ms"},
	{"ndetect.worstcase_ms", "ms"},
	{"ndetect.target_faults", "count"},
	{"ndetect.untargeted_faults", "count"},
	{"ndetect.procedure1_ms", "ms"},
	{"ndetect.procedure1_sets", "count"},
	{"ndetect.procedure1_faults", "count"},
	{"partition.analyze_ms", "ms"},
	{"partition.parts", "count"},
	{"report.encode_ms", "ms"},
	{"report.document_bytes", "bytes"},
	{"exp.request_ms", "ms"},
	{"exp.untraced_ms", "ms"},
	{"synth.synthesize_ms", "ms"},
	{"circuit.parse_ms", "ms"},
	{"circuit.hash_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.job_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.computed", "count"},
	{"service.shed", "count"},
	{"service.hit_p50_ms", "ms"},
	{"service.disk_p50_ms", "ms"},
	{"service.fresh_p50_ms", "ms"},
	{"store.result_get_ms", "ms"},
	{"store.result_put_ms", "ms"},
	{"store.universe_get_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.bytes_written", "bytes"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
}
