package obs

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Open-loop pacing for the load harness (DESIGN.md §15). The arrival
// schedule is computed up front from a seeded source — deterministic and
// clock-free — and the Pacer is the only place the harness touches the
// wall clock: it sleeps until each scheduled offset and timestamps
// completions relative to its epoch. Latency measured from the
// *scheduled* arrival (not the send instant) is what makes the harness
// immune to coordinated omission: if the daemon stalls, subsequent
// arrivals still fire on schedule and their queueing delay lands in the
// histogram instead of silently stretching the gaps between requests.

// ArrivalFixed and ArrivalPoisson name the two arrival processes.
const (
	ArrivalFixed   = "fixed"
	ArrivalPoisson = "poisson"
)

// ArrivalSchedule returns the arrival offsets of an open-loop run:
// ~rate*d arrivals over duration d, either evenly spaced (fixed) or with
// exponentially distributed gaps (a Poisson process) drawn from a source
// seeded with seed. Offsets are ascending; the schedule is a pure
// function of its arguments. Any process other than ArrivalFixed and
// ArrivalPoisson is an error.
func ArrivalSchedule(arrival string, rate float64, d time.Duration, seed int64) ([]time.Duration, error) {
	if arrival != ArrivalFixed && arrival != ArrivalPoisson {
		return nil, fmt.Errorf("obs: unknown arrival process %q (want %s or %s)", arrival, ArrivalFixed, ArrivalPoisson)
	}
	if rate <= 0 || d <= 0 {
		return nil, nil
	}
	var out []time.Duration
	switch arrival {
	case ArrivalPoisson:
		rng := rand.New(rand.NewSource(seed))
		gap := func() time.Duration {
			// Inverse-CDF exponential gap with mean 1/rate seconds.
			return time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second))
		}
		for t := gap(); t < d; t += gap() {
			out = append(out, t)
		}
	case ArrivalFixed:
		step := time.Duration(float64(time.Second) / rate)
		for t := time.Duration(0); t < d; t += step {
			out = append(out, t)
		}
	}
	return out, nil
}

// Pacer anchors an open-loop run to one wall-clock epoch.
type Pacer struct {
	t0 time.Time
}

// StartPacer starts a pacer at the current instant.
func StartPacer() *Pacer { return &Pacer{t0: time.Now()} }

// Sleep blocks until the pacer's epoch plus offset (returns immediately
// when that instant has passed — a late arrival fires at once, and its
// measured latency includes the slip).
func (p *Pacer) Sleep(offset time.Duration) {
	if wait := offset - time.Since(p.t0); wait > 0 {
		time.Sleep(wait)
	}
}

// Elapsed returns the time since the pacer's epoch.
func (p *Pacer) Elapsed() time.Duration { return time.Since(p.t0) }
