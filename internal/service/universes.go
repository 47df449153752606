package service

import (
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
)

// Universe sharing across jobs (DESIGN.md §11).
//
// The exhaustive universe — T(f)/T(g) bitsets and fault tables — depends
// only on the canonical circuit, not on any result-identity option, yet
// it dominates the cost of every worst-case and average-case job. The
// manager therefore shares it at two scopes:
//
//   - in flight: jobs over the same circuit hold references on one
//     universeFlight; the first job to need the universe resolves it and
//     every concurrent or later job over that circuit reuses the object.
//     A sweep submits all its variants before any can retire, so S
//     variants construct exactly once. The flight is dropped when the
//     last referencing job completes — universes are large, and the
//     store (when configured) keeps the durable copy;
//   - on disk: resolution consults the store's universe tier first and
//     persists fresh constructions, so even restarts and cold flights
//     skip simulation + T-set construction.
//
// Correctness never depends on the sharing: a universe is a pure function
// of the canonical circuit, so a shared, loaded, or rebuilt instance
// yields byte-identical documents (§7).

// universeFlight is one circuit's shared universe while any job needs it.
// refs is guarded by Manager.mu; started/u/err follow the singleflight
// protocol (writer sets u/err then closes done; readers wait on done).
type universeFlight struct {
	refs    int
	started bool
	done    chan struct{}
	u       *ndetect.CircuitUniverse
	err     error
}

// acquireUniverseLocked takes a reference on key's flight, creating it on
// first use. Callers hold m.mu.
func (m *Manager) acquireUniverseLocked(key string) {
	f := m.universes[key]
	if f == nil {
		f = &universeFlight{done: make(chan struct{})}
		m.universes[key] = f
	}
	f.refs++
}

// releaseUniverseLocked drops a reference, freeing the flight (and the
// universe's memory) with the last one. Callers hold m.mu.
func (m *Manager) releaseUniverseLocked(key string) {
	f := m.universes[key]
	if f == nil {
		return
	}
	if f.refs--; f.refs <= 0 {
		delete(m.universes, key)
	}
}

// managerUniverses adapts one job's flight to exp.UniverseSource: the
// analysis driver hands it the canonical circuit, and resolution runs
// store-load-or-build exactly once per flight.
type managerUniverses struct {
	m   *Manager
	key string
}

// Universe implements exp.UniverseSource. The flight key already encodes
// the job's fault model (submitLocked), so jobs over the same circuit but
// different models resolve distinct universes.
func (s *managerUniverses) Universe(c *circuit.Circuit, fm fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
	m := s.m
	m.mu.Lock()
	f := m.universes[s.key]
	if f == nil {
		// No flight (the job's reference is released only after the
		// analysis returns, so this is defensive): resolve unshared.
		m.mu.Unlock()
		return m.resolveUniverse(c, fm, opts)
	}
	if f.started {
		m.mu.Unlock()
		<-f.done
		return f.u, f.err
	}
	f.started = true
	m.mu.Unlock()

	// The construction runs with the full server budget, not the calling
	// job's grant: every job that needs this universe is blocked on the
	// flight with its grant idle, so W workers here is the §5 rule applied
	// to the runnable work (a sweep's S jobs at ⌊W/S⌋ grants each would
	// otherwise build their shared dominant stage at 1/S of the machine).
	// Jobs over other circuits may overlap transiently; worker counts
	// never influence results (§7), only wall-clock time.
	opts.Workers = m.workers
	f.u, f.err = m.resolveUniverse(c, fm, opts)
	close(f.done)
	return f.u, f.err
}

// resolveUniverse is the universe tier's load-or-build-and-save
// (build-only when no store is configured), with the manager's build
// hook threaded through; artifacts are keyed by the canonical circuit hash
// and the fault model (store.UniverseWith).
func (m *Manager) resolveUniverse(c *circuit.Circuit, fm fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
	if m.store == nil {
		return m.newUniverse(c, fm, opts)
	}
	return m.store.UniverseWith(c, fm, opts, m.newUniverse)
}
