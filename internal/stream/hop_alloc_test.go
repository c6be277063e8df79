//go:build !race

// The race detector makes sync.Pool drop items on purpose, so the pooled
// units would show up as allocations there.

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

// TestUnitHopAllocationBudget pins the data path's allocations per
// delivered unit on a 3-node simulator streaming one substream.
func TestUnitHopAllocationBudget(t *testing.T) {
	r, _ := newSubmitRig(t, func(a, b netsim.NodeID) time.Duration { return 10 * time.Millisecond })
	for _, e := range r.engines {
		e.SetTracer(nil)
	}
	origin := r.engines[0]
	req := spec.Request{ID: "budget", UnitBytes: 1250, Substreams: []spec.Substream{{Services: []string{"a", "b"}, Rate: 200}}}
	origin.Submit(req, &core.MinCost{}, time.Second, func(_ *core.ExecutionGraph, err error) {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	})
	r.sim.RunUntil(2 * time.Second) // steady state: every table, pool and queue warm
	sink := origin.Sink("budget", 0)
	before := sink.Received
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.sim.RunUntil(12 * time.Second)
	runtime.ReadMemStats(&m1)
	units := sink.Received - before
	if units < 1900 {
		t.Fatalf("delivered %d units in 10 s at 200 units/s", units)
	}
	perUnit := float64(m1.Mallocs-m0.Mallocs) / float64(units)
	t.Logf("%.2f allocations per delivered unit (%d units)", perUnit, units)
	if perUnit > unitHopAllocBudget+0.5 {
		t.Fatalf("%.2f allocations per delivered unit, budget %d", perUnit, unitHopAllocBudget)
	}
}
