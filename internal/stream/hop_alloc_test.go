package stream

import (
	"runtime"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/spec"
)

// unitHopAllocBudget is the most heap allocations one delivered unit may
// cost on the simulator at steady state: source → a → b → sink is three
// wire hops at none each (the frame is cut from the sender's frame chunk,
// the mem transport's envelope and the network's flight are pooled), two
// processing spans and one source tick at one each (a simulator timer's
// cancel function). The engine and the overlay allocate nothing per unit.
// Half an allocation on top absorbs the periodic non-unit work and the
// frame chunks.
const unitHopAllocBudget = 3

// batchedHopAllocBudget is the same budget on the batched plane
// (DefaultDataPlane) with four substreams of a → b at 200 units/s. Every
// allocation left is a simulator timer's cancel function: the source tick,
// the flush deadline of each batch opened and the processing spans. At
// these rates most batches and spans hold one or two units, so a unit
// reads 4.52. The engine allocates nothing per unit: its destination
// records, scheduler units and codec scratch are its own and reused.
const batchedHopAllocBudget = 4.6

// measureHopAllocs streams req from engine 0 of a 3-node simulator on cfg
// and returns the heap allocations per delivered unit over 10 s at steady
// state.
func measureHopAllocs(t *testing.T, cfg Config, req spec.Request) float64 {
	t.Helper()
	r, _ := newSubmitRigConfig(t, func(a, b netsim.NodeID) time.Duration { return 10 * time.Millisecond }, cfg)
	for _, e := range r.engines {
		e.SetTracer(nil)
	}
	origin := r.engines[0]
	origin.Submit(req, &core.MinCost{}, time.Second, func(_ *core.ExecutionGraph, err error) {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	})
	delivered := func() int64 {
		n := int64(0)
		for l := range req.Substreams {
			n += origin.Sink(req.ID, l).Received
		}
		return n
	}
	r.sim.RunUntil(2 * time.Second) // steady state: every table, free list and queue warm
	before := delivered()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.sim.RunUntil(12 * time.Second)
	runtime.ReadMemStats(&m1)
	units := delivered() - before
	want := int64(0)
	for _, ss := range req.Substreams {
		want += int64(ss.Rate) * 10
	}
	if units < want*95/100 {
		t.Fatalf("delivered %d units in 10 s, want about %d", units, want)
	}
	perUnit := float64(m1.Mallocs-m0.Mallocs) / float64(units)
	t.Logf("%.2f allocations per delivered unit (%d units)", perUnit, units)
	return perUnit
}

// TestUnitHopAllocationBudget pins the data path's allocations per
// delivered unit on a 3-node simulator streaming one substream.
func TestUnitHopAllocationBudget(t *testing.T) {
	req := spec.Request{ID: "budget", UnitBytes: 1250, Substreams: []spec.Substream{{Services: []string{"a", "b"}, Rate: 200}}}
	if perUnit := measureHopAllocs(t, Config{}, req); perUnit > unitHopAllocBudget+0.5 {
		t.Fatalf("%.2f allocations per delivered unit, budget %d", perUnit, unitHopAllocBudget)
	}
}

// TestBatchedHopAllocationBudget pins the batched plane's allocations per
// delivered unit on the same simulator, four substreams sharing the hosts.
func TestBatchedHopAllocationBudget(t *testing.T) {
	req := spec.Request{ID: "budget", UnitBytes: 1250}
	for i := 0; i < 4; i++ {
		req.Substreams = append(req.Substreams, spec.Substream{Services: []string{"a", "b"}, Rate: 200})
	}
	if perUnit := measureHopAllocs(t, Config{DataPlane: DefaultDataPlane()}, req); perUnit > batchedHopAllocBudget {
		t.Fatalf("%.2f allocations per delivered unit, budget %.1f", perUnit, batchedHopAllocBudget)
	}
}
