package stream_test

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/transport"
)

// TestDataPlaneConservationUnderChaos drives the batched, sharded data
// plane through chaotic message timing (delay jitter + reordering, which
// never lose units) plus deliberate scheduler pressure, then checks the
// conservation law the Throughput API promises: every emitted unit is
// eventually delivered or charged to exactly one drop counter. Runs under
// -race in CI to shake out data races in the batch/flush/shard paths.
func TestDataPlaneConservationUnderChaos(t *testing.T) {
	const reqID = "cons-a"
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes: 16,
		Seed:  7,
		DataPlane: stream.DataPlaneConfig{
			BatchUnits:    8,
			FlushInterval: time.Millisecond,
			Shards:        4,
		},
		// Delay and Reorder perturb timing without losing messages;
		// Drop/Duplicate would (correctly) break unit conservation.
		Chaos: &transport.ChaosConfig{
			Seed:        7,
			Delay:       2 * time.Millisecond,
			DelayJitter: 5 * time.Millisecond,
			Reorder:     0.2,
		},
		// A small ready queue plus jittered processing forces queue-full
		// and laxity drops, exercising the dropped term of the law.
		QueueCapacity: 4,
		ProcJitter:    0.3,
	})
	req := simpleRequest(reqID, 120, "filter", "transcode")
	submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 8*time.Second)

	// Stop emission, then drain: open batches hit their flush deadlines,
	// queued units are processed or dropped, held chaos messages flush.
	s.Engines[0].StopSources(reqID)
	s.Sim.RunUntil(s.Sim.Now() + 3*time.Second)

	var total stream.Throughput
	for i, e := range s.Engines {
		total.Accumulate(e.Throughput(reqID, 0))
		if held := e.HeldUnits(); held != 0 {
			t.Errorf("engine %d still holds %d early units after the drain", i, held)
		}
	}
	if total.EmittedUnits == 0 {
		t.Fatal("scenario emitted nothing")
	}
	if total.DeliveredUnits == 0 {
		t.Fatal("scenario delivered nothing")
	}
	if total.DroppedUnits == 0 {
		t.Fatal("scenario dropped nothing; pressure knobs no longer bite and the dropped term is untested")
	}
	if total.EmittedUnits != total.DeliveredUnits+total.DroppedUnits {
		t.Fatalf("unit conservation violated: emitted %d != delivered %d + dropped %d (leak of %d)",
			total.EmittedUnits, total.DeliveredUnits, total.DroppedUnits,
			total.EmittedUnits-total.DeliveredUnits-total.DroppedUnits)
	}
	if total.EmittedBytes != total.DeliveredBytes+total.DroppedBytes {
		t.Fatalf("byte conservation violated: emitted %d != delivered %d + dropped %d",
			total.EmittedBytes, total.DeliveredBytes, total.DroppedBytes)
	}
	t.Logf("conserved: emitted=%d delivered=%d dropped=%d",
		total.EmittedUnits, total.DeliveredUnits, total.DroppedUnits)
}

// TestShardedDeliveryPreservesSubstreamOrder runs a multi-substream request
// on a sharded engine and checks that every substream still observes
// in-order delivery at the sink (substreams are pinned to one shard).
func TestShardedDeliveryPreservesSubstreamOrder(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes:     12,
		Seed:      3,
		DataPlane: stream.DefaultDataPlane(),
	})
	req := simpleRequest("shard-a", 40, "filter", "transcode")
	req.Substreams = append(req.Substreams, req.Substreams[0])
	submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)

	for sub := 0; sub < 2; sub++ {
		sink := s.Engines[0].Sink("shard-a", sub)
		if sink == nil {
			t.Fatalf("no sink for substream %d", sub)
		}
		if sink.Received == 0 {
			t.Fatalf("substream %d delivered nothing on the sharded plane", sub)
		}
		if sink.OutOfOrder != 0 {
			t.Fatalf("substream %d saw %d out-of-order units; shard pinning broken",
				sub, sink.OutOfOrder)
		}
	}
}

// TestConservationAcrossRecompose tears a streaming application down and
// recomposes it (the adaptation plane's full-recompose path) while units
// are in flight. The units that reach a host after its component is gone
// used to vanish from the books; they are drops (DropsStale, charged to the
// receiving engine's flow), so emitted = delivered + dropped holds exactly
// across the reallocation.
func TestConservationAcrossRecompose(t *testing.T) {
	const reqID = "cons-realloc"
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 16, Seed: 11})
	origin := s.Engines[0]
	submit(t, s, 0, simpleRequest(reqID, 80, "filter", "transcode", "analyze"), &core.MinCost{})
	// Three recomposes, each mid-stream: every one strands the units that
	// were between hosts, and replaces the sink (Throughput reads only the
	// live one, so the earlier sinks' deliveries are summed here).
	var delivered, deliveredBytes int64
	for round := 0; round < 3; round++ {
		s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
		old := origin.Sink(reqID, 0)
		done := false
		var rerr error
		origin.Recompose(reqID, false, func(err error) { done, rerr = true, err })
		runUntilDone(t, s, &done)
		if rerr != nil {
			t.Fatalf("recompose %d: %v", round, rerr)
		}
		if origin.Sink(reqID, 0) == old {
			t.Fatalf("recompose %d did not install a fresh sink", round)
		}
		delivered += old.Received
		deliveredBytes += old.DeliveredBytes
	}
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
	origin.StopSources(reqID)
	s.Sim.RunUntil(s.Sim.Now() + 3*time.Second)

	var total stream.Throughput
	var stale int64
	for i, e := range s.Engines {
		total.Accumulate(e.Throughput(reqID, 0))
		stale += e.DropsStale
		if held := e.HeldUnits(); held != 0 {
			t.Errorf("engine %d still holds %d early units after the drain", i, held)
		}
	}
	if total.DeliveredUnits == 0 {
		t.Fatal("the last composition delivered nothing")
	}
	delivered += total.DeliveredUnits
	deliveredBytes += total.DeliveredBytes
	if stale == 0 {
		t.Fatal("no unit was in flight to a torn-down component; the scenario no longer covers the stale path")
	}
	if total.DroppedUnits < stale {
		t.Fatalf("%d stale units but only %d drops charged to the flow", stale, total.DroppedUnits)
	}
	if total.EmittedUnits != delivered+total.DroppedUnits {
		t.Fatalf("unit conservation violated across the recompose: emitted %d != delivered %d + dropped %d (leak of %d, %d stale)",
			total.EmittedUnits, delivered, total.DroppedUnits, total.EmittedUnits-delivered-total.DroppedUnits, stale)
	}
	if total.EmittedBytes != deliveredBytes+total.DroppedBytes {
		t.Fatalf("byte conservation violated across the recompose: emitted %d != delivered %d + dropped %d",
			total.EmittedBytes, deliveredBytes, total.DroppedBytes)
	}
	t.Logf("conserved: emitted=%d delivered=%d dropped=%d (stale %d)", total.EmittedUnits, delivered, total.DroppedUnits, stale)
}
