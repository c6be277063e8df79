package stream

import (
	"testing"
	"time"
)

// shardProc is the modelled processing time of the shard tests' relay, the
// benchmark suite's live relay services.
const shardProc = 20 * time.Microsecond

// newShardRig is a stub engine hosting one relay component (stage 0 of
// request "app", forwarding to stubPeer) on the zero data-plane config: one
// unit per span, one shard. Its rate gives units a 100 ms deadline, so the
// tests see queue-full drops only, never laxity drops.
func newShardRig(t *testing.T, clk *testClock) (*Engine, *flowCounters) {
	t.Helper()
	e := newStubEngine(clk, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
	body, err := appendInstantiate(nil, instantiateMsg{
		Req: "app", Service: "relay", Rate: 10, UnitBytes: 100, ProcHint: shardProc, RateRatio: 1, BytesOut: 100,
		Outs: []outSpec{{To: stubPeer, ToStage: 1, Rate: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.onInstantiate(stubPeer, body, func(_ []byte, errText string) {
		if errText != "" {
			t.Fatalf("instantiate: %s", errText)
		}
	})
	return e, e.flowFor("app", 0)
}

// offerUnits hands the relay one unit every `every` until `span` of clock
// time has passed.
func offerUnits(e *Engine, clk *testClock, every, span time.Duration) {
	end := clk.now + span
	for seq := int64(0); clk.now < end; seq++ {
		e.handleUnit(dataMsg{Req: "app", Seq: seq, Created: clk.now, Size: 100}, false)
		clk.advance(every)
	}
}

// An idle shard on a 1 ms clock runs a 20 µs span without a timer: the unit
// is forwarded in the instant it arrives instead of on the clock's next
// tick.
func TestIdleShardForwardsInTheArrivalInstant(t *testing.T) {
	clk := &testClock{res: time.Millisecond}
	e, flow := newShardRig(t, clk)
	for seq := int64(0); seq < 100; seq++ {
		clk.advance(5 * time.Millisecond)
		at := clk.now
		e.handleUnit(dataMsg{Req: "app", Seq: seq, Created: at, Size: 100}, false)
		clk.advance(0)
		if flow.forwardedUnits != seq+1 || clk.now != at {
			t.Fatalf("unit %d: %d forwarded by %v, want %d in its arrival instant %v", seq, flow.forwardedUnits, clk.now, seq+1, at)
		}
	}
	for i, d := range clk.asked {
		if d != 0 {
			t.Fatalf("timer %d waits %v; an idle shard must arm no span timer", i, d)
		}
	}
}

// Offered twice its capacity for a second, a shard on a 1 ms clock still
// runs at its modelled capacity, one unit per 20 µs: spans that complete
// without a timer move the CPU clock forward, and once it is a resolution
// ahead the span timer holds the shard back.
func TestBackloggedShardHoldsModelledCapacity(t *testing.T) {
	clk := &testClock{res: time.Millisecond}
	e, flow := newShardRig(t, clk)
	start := clk.now
	offerUnits(e, clk, shardProc/2, time.Second)
	sh := e.shards[0]
	elapsed := clk.now - start
	modelled := sh.free - start
	if got, most := flow.forwardedUnits, int64(modelled/shardProc)+1; got > most {
		t.Fatalf("forwarded %d units in %v of modelled CPU time, want at most %d", got, modelled, most)
	}
	if ahead := sh.free - clk.now; ahead > clk.res+shardProc {
		t.Fatalf("the CPU clock runs %v ahead of the clock, want at most a resolution and a span", ahead)
	}
	if got, least := float64(flow.forwardedUnits), 0.98*float64(elapsed/shardProc); got < least {
		t.Fatalf("forwarded %.0f units in %v, want at least %.0f", got, elapsed, least)
	}
	if e.DropsLaxity != 0 || e.DropsQueueFull == 0 {
		t.Fatalf("drops: %d laxity, %d queue-full; want 0 and some (the offer is twice the capacity)", e.DropsLaxity, e.DropsQueueFull)
	}
	for i, d := range clk.asked {
		if d != 0 && d < clk.res {
			t.Fatalf("timer %d waits %v, shorter than the %v resolution", i, d, clk.res)
		}
	}
}

// On an exact clock (the simulator's, resolution 0) the CPU clock is never
// ahead at a kick, so every span is a timer of exactly its processing time.
func TestExactClockSpanTimersAreProcessingTime(t *testing.T) {
	clk := &testClock{}
	e, flow := newShardRig(t, clk)
	start := clk.now
	offerUnits(e, clk, shardProc/2, 100*time.Millisecond)
	if len(clk.asked) == 0 {
		t.Fatal("no span timer armed")
	}
	for i, d := range clk.asked {
		if d != shardProc {
			t.Fatalf("span timer %d waits %v, want exactly %v", i, d, shardProc)
		}
	}
	if got, most := flow.forwardedUnits, int64((clk.now-start)/shardProc)+1; got > most || got < most-2 {
		t.Fatalf("forwarded %d units in %v, want %d (one per span)", got, clk.now-start, most)
	}
}
