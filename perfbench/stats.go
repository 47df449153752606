package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is the outcome of one request.
type sample struct {
	class string
	// shape names the pool request of a compute workload, Procedure 1
	// seed aside (requestShape); "" on serve-mixed.
	shape   string
	latency time.Duration
	ok      bool // completed, and its bytes matched the reference digest
	// mismatch marks a completed request whose bytes differ from the
	// reference digest: a different computation, never a faster one.
	mismatch bool
	// shed marks a request the daemon refused with 503 or 429, the one
	// failure admission control may produce by design.
	shed bool
}

// quantile returns the q-quantile of ascending values by linear
// interpolation between order statistics (0 for no values).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// latenciesMs returns the sorted latencies in milliseconds of the
// correct samples of a class ("" = every class).
func latenciesMs(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && (class == "" || s.class == class) {
			out = append(out, ms(s.latency))
		}
	}
	sort.Float64s(out)
	return out
}

// percentileMs returns the q-quantile of request latency in ms. On
// serve-mixed it is the run-wide quantile. A compute run holds a few
// dozen requests of a few pool requests, so a run-wide quantile is one
// pool request's most extreme sample (its run-wide 99th percentile is the
// one slowest request of the run). There it is the q-quantile, over the
// pool's requests, of each pool request's median latency over all its
// samples in the run: the latency of the pool's q-quantile request on a
// typical pass.
func percentileMs(samples []sample, q float64) float64 {
	byShape := map[string][]sample{}
	for _, s := range samples {
		byShape[s.shape] = append(byShape[s.shape], s)
	}
	if _, serve := byShape[""]; serve || len(byShape) == 0 {
		return quantile(latenciesMs(samples, ""), q)
	}
	var per []float64
	for _, reqs := range byShape {
		if lat := latenciesMs(reqs, ""); len(lat) > 0 {
			per = append(per, quantile(lat, 0.5))
		}
	}
	sort.Float64s(per)
	return quantile(per, q)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds returns the CPU time the process has used, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
