// Package netsim provides a deterministic discrete-event network simulator.
//
// It stands in for the PlanetLab testbed used in the RASC paper: nodes are
// connected by access links with finite input/output bandwidth, and pairs of
// nodes are separated by a wide-area latency matrix with jitter. All events
// run on a virtual clock in a single goroutine, ordered by (time, sequence),
// so a simulation with a fixed seed is exactly reproducible.
package netsim

import (
	"math/rand"
	"time"
)

// event is a scheduled callback, held by value in the queue. cancelled is
// set only for events scheduled through Timer: the callback is skipped when
// it points at true.
type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled *bool
}

// before orders events by (at, seq). seq is unique, so this is a total
// order and any correct priority queue pops the same sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events ordered by before.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{} // release the callback
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].before(&h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return top
}

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; create one with New.
type Simulator struct {
	now     time.Duration
	events  eventQueue
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (time elapsed since the simulation
// started).
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. Events scheduled for the same instant run in scheduling order.
func (s *Simulator) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t. If t is in the past, fn runs "now"
// (at the current time, after already-pending events for this instant).
func (s *Simulator) At(t time.Duration, fn func()) { s.at(t, fn, nil) }

// Timer is Schedule with cancellation: the returned function keeps fn from
// running if the event has not fired yet, and does nothing after it has.
// A cancelled event still holds its place in the queue (and advances the
// clock when it is reached), so cancelling never reorders anything else.
func (s *Simulator) Timer(delay time.Duration, fn func()) (cancel func()) {
	if delay < 0 {
		delay = 0
	}
	cancelled := new(bool)
	s.at(s.now+delay, fn, cancelled)
	return func() { *cancelled = true }
}

func (s *Simulator) at(t time.Duration, fn func(), cancelled *bool) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn, cancelled: cancelled})
}

// step runs the earliest event.
func (s *Simulator) step() {
	ev := s.events.pop()
	s.now = ev.at
	if ev.cancelled == nil || !*ev.cancelled {
		ev.fn()
	}
}

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled after t remain pending.
func (s *Simulator) RunUntil(t time.Duration) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at > t {
			break
		}
		s.step()
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// Stop halts the current Run/RunUntil after the in-flight event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Pending reports the number of events still queued.
func (s *Simulator) Pending() int { return len(s.events) }
