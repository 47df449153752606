package service

import (
	"sync"
)

// Live job events (DESIGN.md §14): every state transition and progress
// update of a job is published as a JobEvent to its subscribers, which
// is what GET /jobs/{id}/events streams as Server-Sent Events. The
// protocol is replay-from-snapshot: a subscriber first receives one
// "state" event carrying the job's current snapshot (which includes the
// latest progress), then every event from that point on, in publication
// order, ending with the terminal "state" event (done or failed). A
// subscription to an already-completed job is just the terminal
// snapshot. Events are observational only — they never influence the
// job or its result bytes.

// Event types.
const (
	// EventState carries a full JobInfo snapshot; the stream ends after
	// a state event in a terminal state (done/failed).
	EventState = "state"
	// EventProgress carries one ProgressInfo update.
	EventProgress = "progress"
)

// JobEvent is one entry of a job's event stream.
type JobEvent struct {
	// Seq numbers the job's events from 1, monotonically: the SSE "id:"
	// field, usable as a resume cursor. The snapshot event replayed on
	// subscribe carries the seq of the last event it folds in.
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	// Info is the job snapshot (state events).
	Info *JobInfo `json:"info,omitempty"`
	// Progress is the stage progress update (progress events).
	Progress *ProgressInfo `json:"progress,omitempty"`
}

// Terminal reports whether ev ends its stream.
func (ev JobEvent) Terminal() bool {
	return ev.Type == EventState && ev.Info != nil &&
		(ev.Info.State == JobDone || ev.Info.State == JobFailed)
}

// EventSub is one subscriber's queue. The manager appends events under
// its own lock; the consumer drains from its own goroutine, waiting on
// Notify between drains, so a slow consumer never blocks the scheduler
// (the queue grows instead — bounded by the job's event count, which a
// terminal event caps).
type EventSub struct {
	mu     sync.Mutex
	queue  []JobEvent
	notify chan struct{}
}

func newEventSub() *EventSub {
	return &EventSub{notify: make(chan struct{}, 1)}
}

// push appends one event and wakes the consumer.
func (s *EventSub) push(ev JobEvent) {
	s.mu.Lock()
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Notify returns the channel signaled when new events are queued.
func (s *EventSub) Notify() <-chan struct{} { return s.notify }

// Drain returns and clears the queued events.
func (s *EventSub) Drain() []JobEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.queue
	s.queue = nil
	return out
}

// Events subscribes to a job's event stream. snapshot replays the
// current state as one state event; sub is nil when the job is already
// terminal (the snapshot is the whole stream). ok is false for unknown
// jobs. Callers must Unsubscribe a non-nil sub when done.
func (m *Manager) Events(id string) (snapshot JobEvent, sub *EventSub, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, e, ok := m.lookupLocked(id)
	switch {
	case j != nil:
		// Snapshot + attach under one critical section: no event published
		// after this snapshot can be missed by the subscription.
		sub = newEventSub()
		j.subs = append(j.subs, sub)
		m.met.streaming.Add(1)
		info := j.info
		return JobEvent{Seq: j.seq, Type: EventState, Info: &info}, sub, true
	case ok:
		info := e.info
		return JobEvent{Seq: e.seq, Type: EventState, Info: &info}, nil, true
	}
	return JobEvent{}, nil, false
}

// Unsubscribe detaches a subscription created by Events. Safe to call
// after the job completed (the job record is gone; nothing to detach).
func (m *Manager) Unsubscribe(id string, sub *EventSub) {
	if sub == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met.streaming.Add(-1)
	j, ok := m.inflight[id]
	if !ok {
		return
	}
	for i, s := range j.subs {
		if s == sub {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// publishLocked appends one event to the job's stream and fans it out.
// Callers hold m.mu and fill every field but Seq.
func (m *Manager) publishLocked(j *job, ev JobEvent) {
	j.seq++
	ev.Seq = j.seq
	for _, s := range j.subs {
		s.push(ev)
	}
}

// publishStateLocked publishes the job's current snapshot as a state
// event. Callers hold m.mu.
func (m *Manager) publishStateLocked(j *job) {
	info := j.info
	m.publishLocked(j, JobEvent{Type: EventState, Info: &info})
}
