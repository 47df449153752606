package obs

import (
	"net/http"
	"sync/atomic"
	"time"
)

// Structured request logs for the daemon: one line per request with
// method, path (which carries the job key hash for /jobs/{id} routes),
// status, response bytes and duration. The middleware preserves
// http.Flusher on the wrapped ResponseWriter so live SSE streams keep
// flushing through it.

// AccessLogSampled wraps next so requests are reported to logf after they
// complete:
//
//	http method=GET path=/jobs/abc123 status=200 bytes=412 dur=1.2ms
//
// Only every sample-th request is logged (0 = none, 1 = all), so a
// sustained 60 s load test doesn't flood stderr — and doesn't distort the
// very latency it is measuring with per-request log I/O. Server errors
// (status >= 500) are always logged regardless of the sample rate; they
// are rare by contract and each one matters.
func AccessLogSampled(logf func(format string, args ...any), sample int, next http.Handler) http.Handler {
	var n atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		sampled := sample == 1 || (sample > 1 && n.Add(1)%uint64(sample) == 1)
		if !sampled && rec.status < http.StatusInternalServerError {
			return
		}
		logf("http method=%s path=%s status=%d bytes=%d dur=%s",
			r.Method, r.URL.Path, rec.status, rec.bytes,
			time.Since(t0).Round(10*time.Microsecond))
	})
}

// TimeHandler wraps next so record receives the response status and the
// request's wall-clock duration in seconds once it completes — the hook
// behind the daemon's per-class request-latency histograms. The clock
// stays here in obs; the serving package only supplies the recording
// closure. For streaming responses (SSE) the duration is the stream
// lifetime.
func TimeHandler(record func(status int, seconds float64), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		record(rec.status, time.Since(t0).Seconds())
	})
}

// statusRecorder captures the status code and body size of a response.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it streams — SSE and
// other incremental responses must keep working behind the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
