// Package netsim provides a deterministic discrete-event network simulator.
//
// It stands in for the PlanetLab testbed used in the RASC paper: nodes are
// connected by access links with finite input/output bandwidth, and pairs of
// nodes are separated by a wide-area latency matrix with jitter. All events
// run on a virtual clock in a single goroutine, ordered by (time, sequence),
// so a simulation with a fixed seed is exactly reproducible.
package netsim

import (
	"math/bits"
	"math/rand"
	"time"
)

// key orders the event queue by (at, seq) and names the slab slot that
// holds the event's payload. seq is unique, so (at, seq) is a total order
// and any correct priority queue pops the same sequence. A key holds no
// pointer: the heap's sifts move plain 24-byte values, which the garbage
// collector neither scans nor guards with write barriers.
type key struct {
	at   time.Duration
	seq  uint64
	slot uint32
}

func (k key) before(o key) bool { return earlier(k, o) != 0 }

// earlier is 1 when x orders before y and 0 otherwise, computed without a
// branch: (at, seq) is compared as one 128-bit unsigned number, whose
// subtraction borrows exactly when x is the smaller. at is never negative
// (the clock starts at zero and at clamps to it), so its unsigned order is
// its order. The heap's sifts select children with it arithmetically: the
// comparisons of a pop are data-dependent coin flips a branch predictor
// cannot learn.
func earlier(x, y key) int {
	_, borrow := bits.Sub64(x.seq, y.seq, 0)
	_, borrow = bits.Sub64(uint64(x.at), uint64(y.at), borrow)
	return int(borrow)
}

// event is what a queued key does: run fn, or move the message fl one
// step on (Network.step); with neither it is a stopped timer, which only
// advances the clock. seq repeats the key's, so a Timer's Stop recognises
// its own event and leaves a reused slot alone.
type event struct {
	fn  func()
	fl  *flight
	seq uint64
}

// eventQueue is a 4-ary min-heap of keys over a slab of events. A popped
// event's slot goes on the free list and is reused by a later push.
type eventQueue struct {
	heap []key
	slab []event
	free []uint32
}

// push queues ev at (at, ev.seq) and returns its slot.
func (q *eventQueue) push(at time.Duration, ev event) uint32 {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = ev
	} else {
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	k := key{at: at, seq: ev.seq, slot: slot}
	h := append(q.heap, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	q.heap = h
	return slot
}

// pop removes the earliest key and returns its instant and event, freeing
// the slot. The queue must not be empty. The hole left at the root sinks
// along the least children to the bottom, and the last key rises from
// there to its place: the last key belongs near the bottom, so this takes
// fewer comparisons than sifting it down from the root.
func (q *eventQueue) pop() (time.Duration, event) {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c+3 < n {
			a := c + earlier(h[c+1], h[c])
			b := c + 2 + earlier(h[c+3], h[c+2])
			a ^= (a ^ b) & -earlier(h[b], h[a])
			h[i] = h[a]
			i = a
			continue
		}
		if c >= n {
			break
		}
		least := c
		for j := c + 1; j < n; j++ {
			if h[j].before(h[least]) {
				least = j
			}
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		for i > 0 {
			parent := (i - 1) / 4
			if !last.before(h[parent]) {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = last
	}
	q.heap = h
	ev := q.slab[top.slot]
	q.slab[top.slot] = event{} // release the callback and the message
	q.free = append(q.free, top.slot)
	return top.at, ev
}

// len is the number of queued events, stopped timers included.
func (q *eventQueue) len() int { return len(q.heap) }

// next is the instant of the earliest event. The queue must not be empty.
func (q *eventQueue) next() time.Duration { return q.heap[0].at }

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
func (s *Simulator) At(t time.Duration, fn func()) { s.at(t, event{fn: fn}) }

// Timer is Schedule with cancellation: Stop on the returned handle keeps fn
// from running if the event has not fired yet, and does nothing after it
// has. A stopped event still holds its place in the queue (and advances the
// clock when it is reached), so stopping never reorders anything else: Run
// ends at the last queued instant, stopped or not, and every later instant
// of a simulation inherits that clock. Arming a timer allocates nothing.
func (s *Simulator) Timer(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.timer(s.now+delay, fn)
}

// timer queues fn at absolute time t (clamped to now) and returns its
// handle.
func (s *Simulator) timer(t time.Duration, fn func()) Timer {
	slot := s.at(t, event{fn: fn})
	return Timer{s: s, slot: slot, seq: s.seq}
}

// Timer is the handle of a queued timer: its slab slot and the seq of the
// event it queued there. The zero Timer is unarmed.
type Timer struct {
	s    *Simulator
	slot uint32
	seq  uint64
}

// Stop keeps the timer's callback from running. It is a no-op on the zero
// Timer, after the timer fired or was stopped, and after its slot was
// reused by a later event (whose seq differs).
func (t Timer) Stop() {
	if t.s == nil {
		return
	}
	if ev := &t.s.events.slab[t.slot]; ev.seq == t.seq {
		ev.fn = nil
	}
}

// at queues ev at absolute time t (clamped to now) under the next seq and
// returns its slot.
func (s *Simulator) at(t time.Duration, ev event) uint32 {
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev.seq = s.seq
	return s.events.push(t, ev)
}

// step runs the earliest event.
func (s *Simulator) step() {
	at, ev := s.events.pop()
	s.now = at
	switch {
	case ev.fl != nil:
		ev.fl.net.step(ev.fl)
	case ev.fn != nil:
		ev.fn()
	}
}

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for s.events.len() > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled after t remain pending.
func (s *Simulator) RunUntil(t time.Duration) {
	s.stopped = false
	for s.events.len() > 0 && !s.stopped {
		if s.events.next() > t {
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
func (s *Simulator) Pending() int { return s.events.len() }
