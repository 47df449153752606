package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Quantile against a known uniform distribution: 1000 observations
// spread evenly over (0, 1] with bounds every 0.1 — every quantile is
// known exactly and the linear interpolation must land within one
// observation step of it.
func TestHistogramQuantileUniform(t *testing.T) {
	bounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	h := NewHistogram(bounds)
	const n = 1000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / n)
	}
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0} {
		got := h.Snapshot().Quantile(q)
		if math.Abs(got-q) > 0.002 {
			t.Errorf("Quantile(%v) = %v, want ~%v", q, got, q)
		}
	}
}

// Quantile on a two-point distribution: the winning bucket flips at the
// mass boundary, and the interpolated value stays inside that bucket
// (the documented upper-bound estimate: never below the bucket's lower
// edge, never above its upper edge).
func TestHistogramQuantileBimodal(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1, 10})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // 90% fast
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // 10% slow
	}
	if got := h.Snapshot().Quantile(0.50); got <= 0 || got > 0.01 {
		t.Errorf("p50 = %v, want within the (0, 0.01] bucket", got)
	}
	if got := h.Snapshot().Quantile(0.99); got <= 1 || got > 10 {
		t.Errorf("p99 = %v, want within the (1, 10] bucket", got)
	}
	// The p-quantile estimate is monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.999} {
		got := h.Snapshot().Quantile(q)
		if got < prev {
			t.Errorf("Quantile(%v) = %v < previous %v: not monotone", q, got, prev)
		}
		prev = got
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Snapshot().Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %v, want NaN", got)
	}
	h.Observe(0.5)
	for _, q := range []float64{0, -1, 1.1} {
		if got := h.Snapshot().Quantile(q); !math.IsNaN(got) {
			t.Errorf("Quantile(%v) = %v, want NaN", q, got)
		}
	}
	// Observations beyond the last bound clamp to the highest finite
	// bound — the documented resolution limit, not an extrapolation.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := h2.Snapshot().Quantile(0.99); got != 2 {
		t.Errorf("overflow-bucket quantile = %v, want the last bound 2", got)
	}
}

func TestHistogramVecPreset(t *testing.T) {
	v := NewHistogramVec(nil).Preset("hot", "cold")
	if got := v.Labels(); len(got) != 2 || got[0] != "cold" || got[1] != "hot" {
		t.Fatalf("Labels = %v, want [cold hot]", got)
	}
	if v.Child("hot").Snapshot().Count != 0 {
		t.Error("preset child not empty")
	}
	v.Observe("hot", 0.5) // reuses the preset child
	if v.Child("hot").Snapshot().Count != 1 {
		t.Error("observation missed the preset child")
	}
}

// The access-log sampling knob: sample=0 logs nothing, sample=N logs
// every Nth request — but a 5xx is always logged, whatever the rate.
func TestAccessLogSampled(t *testing.T) {
	run := func(sample int, statuses []int) []string {
		var lines []string
		logf := func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		}
		i := 0
		h := AccessLogSampled(logf, sample, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(statuses[i])
			i++
		}))
		for range statuses {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/jobs/x", nil))
		}
		return lines
	}

	ok := make([]int, 10)
	for i := range ok {
		ok[i] = http.StatusOK
	}
	if lines := run(0, ok); len(lines) != 0 {
		t.Errorf("sample=0 logged %d lines, want 0", len(lines))
	}
	if lines := run(1, ok); len(lines) != 10 {
		t.Errorf("sample=1 logged %d lines, want 10", len(lines))
	}
	if lines := run(5, ok); len(lines) != 2 {
		t.Errorf("sample=5 logged %d of 10 lines, want 2", len(lines))
	}

	mixed := []int{200, 500, 200, 503, 200, 200, 200, 200, 200, 200}
	lines := run(0, mixed)
	if len(lines) != 2 {
		t.Fatalf("sample=0 with 5xx logged %d lines, want the 2 errors", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, "status=50") {
			t.Errorf("unexpected non-5xx line under sample=0: %s", l)
		}
	}
}

func TestTimeHandlerRecordsStatusAndDuration(t *testing.T) {
	var status int
	var secs float64
	h := TimeHandler(func(st int, s float64) { status, secs = st, s },
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(2 * time.Millisecond)
			w.WriteHeader(http.StatusTooManyRequests)
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/jobs", nil))
	if status != http.StatusTooManyRequests {
		t.Errorf("status = %d", status)
	}
	if secs < 0.002 {
		t.Errorf("duration = %v s, want >= 2ms", secs)
	}
}

func mustSchedule(t *testing.T, arrival string, rate float64, d time.Duration, seed int64) []time.Duration {
	t.Helper()
	s, err := ArrivalSchedule(arrival, rate, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The arrival schedule is a pure function of (process, rate, duration,
// seed): deterministic, ascending, with the right mean rate.
func TestArrivalSchedule(t *testing.T) {
	fixed := mustSchedule(t, ArrivalFixed, 100, time.Second, 1)
	if len(fixed) != 100 {
		t.Fatalf("fixed: %d arrivals, want 100", len(fixed))
	}
	if fixed[0] != 0 || fixed[1] != 10*time.Millisecond {
		t.Errorf("fixed spacing wrong: %v %v", fixed[0], fixed[1])
	}

	p1 := mustSchedule(t, ArrivalPoisson, 100, 10*time.Second, 7)
	p2 := mustSchedule(t, ArrivalPoisson, 100, 10*time.Second, 7)
	if len(p1) != len(p2) {
		t.Fatal("same seed, different schedules")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed, different arrival %d: %v vs %v", i, p1[i], p2[i])
		}
		if i > 0 && p1[i] < p1[i-1] {
			t.Fatalf("arrivals not ascending at %d", i)
		}
	}
	// ~1000 arrivals expected; Poisson sd is ~32, so ±200 is >6 sigma.
	if n := len(p1); n < 800 || n > 1200 {
		t.Errorf("poisson arrival count %d far from expected 1000", n)
	}
	if p3 := mustSchedule(t, ArrivalPoisson, 100, 10*time.Second, 8); len(p3) == len(p1) {
		same := true
		for i := range p3 {
			if p3[i] != p1[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

// Only the two named processes schedule anything: an unknown name is an
// error, not silently the fixed process, whatever the rate and duration.
func TestArrivalScheduleRejectsUnknownProcess(t *testing.T) {
	for _, rate := range []float64{100, 0} {
		if s, err := ArrivalSchedule("poison", rate, time.Second, 1); err == nil || !strings.Contains(err.Error(), `"poison"`) {
			t.Errorf("rate %v: ArrivalSchedule(poison) = %d arrivals, %v; want an error naming it", rate, len(s), err)
		}
	}
	if s, err := ArrivalSchedule(ArrivalFixed, 0, time.Second, 1); err != nil || s != nil {
		t.Errorf("fixed at rate 0 = %v, %v; want no arrivals and no error", s, err)
	}
}

func TestRateLimiter(t *testing.T) {
	l := NewRateLimiter(10, 3) // 10/s, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst grant %d denied", i)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("4th immediate request granted beyond burst")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Errorf("retryAfter = %v, want ~100ms", retry)
	}
	// Keys are independent.
	if ok, _ := l.Allow("b"); !ok {
		t.Error("fresh key denied while another key is exhausted")
	}
	// Tokens accrue with time.
	time.Sleep(150 * time.Millisecond)
	if ok, _ := l.Allow("a"); !ok {
		t.Error("no token after refill interval")
	}
	// rate <= 0 disables limiting.
	open := NewRateLimiter(0, 1)
	for i := 0; i < 100; i++ {
		if ok, _ := open.Allow("x"); !ok {
			t.Fatal("disabled limiter denied a request")
		}
	}
}

// The ndetect.load/v1 document round-trips through JSON with its raw
// histogram buckets intact, so the SLO gate can recompute quantiles.
func TestLoadDocumentRoundTrip(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	cls := LoadClass{Name: "hot", Scheduled: 5, Requests: 4, Latency: h.Snapshot()}
	cls.Stamp()
	doc := LoadDocument{
		Schema: LoadSchema, Arrival: ArrivalPoisson, Seed: 1,
		TargetRPS: 50, AchievedRPS: 49.5, DurationSeconds: 20,
		Classes: []LoadClass{cls}, IdentityChecks: 3,
	}
	raw, err := json.Marshal(&doc)
	if err != nil {
		t.Fatal(err)
	}
	var back LoadDocument
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != LoadSchema || len(back.Classes) != 1 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	got := back.Classes[0]
	if got.Latency.Count != 4 || len(got.Latency.Cumulative) != 4 {
		t.Fatalf("histogram snapshot lost: %+v", got.Latency)
	}
	if q := got.Latency.Quantile(0.5); math.Abs(q-cls.P50) > 1e-12 {
		t.Errorf("recomputed p50 %v != stamped %v", q, cls.P50)
	}
	if table := FormatLoadTable(&back); !strings.Contains(table, "hot") {
		t.Errorf("table missing class row:\n%s", table)
	}
}
