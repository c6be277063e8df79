package sched

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refHeap is the container/heap queue LLF and EDF ran on before their heap
// was inlined, kept as the oracle of the property test below.
type refHeap struct {
	units []*Unit
	less  func(a, b *Unit) bool
}

func (h *refHeap) Len() int           { return len(h.units) }
func (h *refHeap) Less(i, j int) bool { return h.less(h.units[i], h.units[j]) }
func (h *refHeap) Swap(i, j int)      { h.units[i], h.units[j] = h.units[j], h.units[i] }
func (h *refHeap) Push(x interface{}) { h.units = append(h.units, x.(*Unit)) }
func (h *refHeap) Pop() interface{} {
	n := len(h.units)
	u := h.units[n-1]
	h.units = h.units[:n-1]
	return u
}

// refPolicy is the oracle's Policy: the former llf and edf, one less each.
type refPolicy struct {
	heap     refHeap
	capacity int
}

func newRefPolicy(name string, capacity int) *refPolicy {
	q := &refPolicy{capacity: capacity}
	q.heap.less = func(a, b *Unit) bool {
		if a.laxityKey() != b.laxityKey() {
			return a.laxityKey() < b.laxityKey()
		}
		return a.Enqueued < b.Enqueued
	}
	if name == "edf" {
		q.heap.less = func(a, b *Unit) bool {
			if a.Deadline != b.Deadline {
				return a.Deadline < b.Deadline
			}
			return a.Enqueued < b.Enqueued
		}
	}
	return q
}

func (q *refPolicy) Name() string { return "ref" }
func (q *refPolicy) Len() int     { return q.heap.Len() }

func (q *refPolicy) Push(u *Unit) bool {
	if q.capacity > 0 && q.heap.Len() >= q.capacity {
		return false
	}
	heap.Push(&q.heap, u)
	return true
}

func (q *refPolicy) Next(now time.Duration) (*Unit, []*Unit) {
	var dropped []*Unit
	for q.heap.Len() > 0 {
		u := heap.Pop(&q.heap).(*Unit)
		if u.Laxity(now) < 0 {
			dropped = append(dropped, u)
			continue
		}
		return u, dropped
	}
	return nil, dropped
}

// Property: over random push / next / drain sequences whose units mostly
// tie (a handful of deadlines, execution times and arrival instants), the
// inline heap hands out and drops exactly the units the container/heap
// oracle does, in the same order.
func TestHeapMatchesContainerHeapOracle(t *testing.T) {
	for _, name := range []string{"llf", "edf"} {
		for seed := int64(0); seed < 500; seed++ {
			rng := rand.New(rand.NewSource(seed))
			capacity := rng.Intn(40) // 0: unbounded
			got, want := NewPolicy(name, capacity), newRefPolicy(name, capacity)
			var log []int
			record := func(u *Unit) { log = append(log, u.Payload.(int)) }
			var now time.Duration
			var gotOrder, wantOrder []int
			for step, id := 0, 0; step < 300; step++ {
				now += time.Duration(rng.Intn(3)) * time.Millisecond
				switch op := rng.Intn(10); {
				case op < 6:
					mk := func() *Unit {
						return &Unit{
							Deadline: now + time.Duration(rng.Intn(4))*time.Millisecond,
							ExecTime: time.Duration(rng.Intn(2)) * time.Millisecond,
							Enqueued: now - time.Duration(rng.Intn(2))*time.Millisecond,
							Payload:  id,
						}
					}
					a, b := mk(), mk()
					*b = *a // the same unit for both queues, not the same pointer
					if g, w := got.Push(a), want.Push(b); g != w {
						t.Fatalf("%s seed %d step %d: Push = %v, oracle %v", name, seed, step, g, w)
					}
					id++
				case op < 9:
					log = log[:0]
					u, dropped := got.Next(now)
					for _, d := range dropped {
						record(d)
					}
					if u != nil {
						record(u)
					}
					gotOrder = append(gotOrder[:0], log...)
					log = log[:0]
					u, dropped = want.Next(now)
					for _, d := range dropped {
						record(d)
					}
					if u != nil {
						record(u)
					}
					wantOrder = append(wantOrder[:0], log...)
				default:
					log = log[:0]
					for _, u := range DrainN(got, now, 8, nil, record) {
						record(u)
					}
					gotOrder = append(gotOrder[:0], log...)
					log = log[:0]
					for _, u := range DrainN(want, now, 8, nil, record) {
						record(u)
					}
					wantOrder = append(wantOrder[:0], log...)
				}
				if !slices.Equal(gotOrder, wantOrder) || got.Len() != want.Len() {
					t.Fatalf("%s seed %d step %d: popped %v (%d left), oracle %v (%d left)",
						name, seed, step, gotOrder, got.Len(), wantOrder, want.Len())
				}
			}
		}
	}
}
