// Package sched implements RASC's node-local scheduling algorithm (§3.4).
//
// Every data unit awaiting execution gets a deadline equal to the expected
// arrival time of the next data unit for the same component (arrival +
// period p_ci). At each scheduling decision the laxity of a unit is the
// time it can still afford to wait:
//
//	L(du) = d_du − now − t_ci
//
// (the paper prints the negated expression but describes exactly this
// semantics: positive laxity means the unit can still meet its deadline).
// Units whose laxity has gone negative are dropped; among the rest, the one
// with the smallest laxity runs first (least-laxity-first). FIFO and EDF
// policies are provided for ablation experiments.
package sched

import (
	"time"
)

// Unit is a schedulable data unit.
type Unit struct {
	// ComponentKey identifies the component c_i the unit belongs to.
	ComponentKey string
	// Deadline is d_du: the expected arrival time of the component's
	// next data unit.
	Deadline time.Duration
	// ExecTime is the estimated running time t_ci at enqueue time.
	ExecTime time.Duration
	// Enqueued is the unit's arrival time at this node.
	Enqueued time.Duration
	// Payload carries the caller's data through the queue.
	Payload interface{}

	key time.Duration // heap order, set by the policy at Push
}

// laxityKey is the time-independent part of the laxity: L = key − now, so
// ordering by key orders by laxity at any single instant.
func (u *Unit) laxityKey() time.Duration { return u.Deadline - u.ExecTime }

// Laxity returns the unit's laxity at time now.
func (u *Unit) Laxity(now time.Duration) time.Duration { return u.laxityKey() - now }

// Policy is a node scheduling discipline.
type Policy interface {
	// Push enqueues a unit; it returns false (and does not enqueue) when
	// the queue is full.
	Push(u *Unit) bool
	// Next picks the unit to execute at time now. It returns nil if the
	// queue is empty or every unit was dropped. Units dropped for
	// missing their deadlines are returned in dropped.
	Next(now time.Duration) (run *Unit, dropped []*Unit)
	// Len reports the number of queued units.
	Len() int
	// Name identifies the policy in reports.
	Name() string
}

// unitHeap is a binary min-heap of units ordered by (key, Enqueued). Its
// sift steps make container/heap's choices (the lesser child, the left one
// on a tie, moves up only when strictly less), so units that tie on both
// pop in the same order as they did through that package.
type unitHeap []*Unit

// before orders two units by key, then by arrival.
func before(a, b *Unit) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.Enqueued < b.Enqueued
}

func (h *unitHeap) push(u *Unit) {
	q := append(*h, u)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !before(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the least unit. The heap must not be empty.
func (h *unitHeap) pop() *Unit {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = nil // release the unit
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && before(q[l], q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && before(q[r], q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// heapPolicy is a bounded priority queue that drops units whose laxity went
// negative as they reach its head. LLF and EDF differ only in the key the
// heap orders by.
type heapPolicy struct {
	name     string
	heap     unitHeap
	capacity int
	key      func(*Unit) time.Duration
	m        policyMetrics
}

// NewLLF creates a least-laxity-first queue (the paper's policy) holding
// at most capacity units (capacity <= 0 means unbounded).
func NewLLF(capacity int) Policy {
	return &heapPolicy{name: "llf", capacity: capacity, key: (*Unit).laxityKey, m: newPolicyMetrics("llf")}
}

// NewEDF creates an earliest-deadline-first queue, an ablation against LLF.
func NewEDF(capacity int) Policy {
	return &heapPolicy{name: "edf", capacity: capacity, key: deadline, m: newPolicyMetrics("edf")}
}

func deadline(u *Unit) time.Duration { return u.Deadline }

func (q *heapPolicy) Name() string { return q.name }
func (q *heapPolicy) Len() int     { return len(q.heap) }

func (q *heapPolicy) Push(u *Unit) bool {
	if q.capacity > 0 && len(q.heap) >= q.capacity {
		q.m.onReject()
		return false
	}
	u.key = q.key(u)
	q.heap.push(u)
	q.m.onPush()
	return true
}

func (q *heapPolicy) Next(now time.Duration) (*Unit, []*Unit) {
	var dropped []*Unit
	for len(q.heap) > 0 {
		u := q.heap.pop()
		if u.Laxity(now) < 0 {
			q.m.onDrop(u, now)
			dropped = append(dropped, u)
			continue
		}
		q.m.onRun(u, now)
		return u, dropped
	}
	return nil, dropped
}

// fifo runs units in arrival order, still dropping units that can no
// longer meet their deadlines (so the ablation isolates ordering, not
// admission). Popping advances a head index instead of reslicing
// (`units = units[1:]` would pin every popped *Unit in the backing array
// until the whole array is released); popped slots are nilled so the
// units become collectable immediately, and the buffer compacts once the
// dead prefix dominates.
type fifo struct {
	units    []*Unit
	head     int
	capacity int
	m        policyMetrics
}

// NewFIFO creates a first-in-first-out queue.
func NewFIFO(capacity int) Policy {
	return &fifo{capacity: capacity, m: newPolicyMetrics("fifo")}
}

func (q *fifo) Name() string { return "fifo" }
func (q *fifo) Len() int     { return len(q.units) - q.head }

func (q *fifo) Push(u *Unit) bool {
	if q.capacity > 0 && q.Len() >= q.capacity {
		q.m.onReject()
		return false
	}
	q.units = append(q.units, u)
	q.m.onPush()
	return true
}

// pop removes and returns the head unit; the caller guarantees Len() > 0.
func (q *fifo) pop() *Unit {
	u := q.units[q.head]
	q.units[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.units):
		// Empty: recycle the buffer from the start.
		q.units = q.units[:0]
		q.head = 0
	case q.head > 32 && q.head > len(q.units)/2:
		// Mostly dead prefix: slide the live tail down so the backing
		// array stops growing without bound under steady traffic.
		n := copy(q.units, q.units[q.head:])
		for i := n; i < len(q.units); i++ {
			q.units[i] = nil
		}
		q.units = q.units[:n]
		q.head = 0
	}
	return u
}

func (q *fifo) Next(now time.Duration) (*Unit, []*Unit) {
	var dropped []*Unit
	for q.Len() > 0 {
		u := q.pop()
		if u.Laxity(now) < 0 {
			q.m.onDrop(u, now)
			dropped = append(dropped, u)
			continue
		}
		q.m.onRun(u, now)
		return u, dropped
	}
	return nil, dropped
}

// DrainN pops up to max runnable units from p at time now, appending them
// to dst and returning it. Units dropped for negative laxity are handed to
// onDrop in the order they are encountered, so the drop/run interleaving
// is exactly that of repeated Next calls. The batched data plane drains a
// whole processing span with one call instead of one Next per unit.
func DrainN(p Policy, now time.Duration, max int, dst []*Unit, onDrop func(*Unit)) []*Unit {
	for len(dst) < max {
		u, dropped := p.Next(now)
		for _, d := range dropped {
			onDrop(d)
		}
		if u == nil {
			break
		}
		dst = append(dst, u)
	}
	return dst
}

// NewPolicy constructs a policy by name ("llf", "edf" or "fifo"); unknown
// names fall back to LLF.
func NewPolicy(name string, capacity int) Policy {
	switch name {
	case "edf":
		return NewEDF(capacity)
	case "fifo":
		return NewFIFO(capacity)
	default:
		return NewLLF(capacity)
	}
}
