package stream

import (
	"errors"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
)

// earlyRig is a two-engine rig for the early-unit buffer: engine 1 is the
// host under test, engine 0 holds the sinks its components forward to. The
// tests hand units and instantiate messages to engine 1 directly, at
// scripted simulator times.
type earlyRig struct {
	*gatherRig
	host *Engine
	buf  *trace.Buffer
}

func newEarlyRig(t *testing.T, cfg Config) *earlyRig {
	t.Helper()
	r := &earlyRig{gatherRig: newRig(t, 2, func(a, b netsim.NodeID) time.Duration { return gatherRTT / 2 }, 1e8, cfg)}
	r.host = r.engines[1]
	r.buf = trace.NewBuffer(1 << 12)
	r.host.SetTracer(r.buf)
	return r
}

// sink installs, at engine 0, the sink of a one-service request.
func (r *earlyRig) sink(req string) *Sink {
	s := newSink(req, 0, 1, 100*time.Millisecond, 100*time.Millisecond, 0)
	r.engines[0].request(req).setSink(0, s)
	return s
}

// arrive hands the host one unit addressed to stage 0 of req, created now.
func (r *earlyRig) arrive(req string, seq int64) {
	r.host.handleUnit(dataMsg{Req: req, Stage: 0, Seq: seq, Created: r.sim.Now(), Size: 1250}, false)
}

// instantiate creates stage 0 of req (service "a", 10 units/s) on the host,
// forwarding to the sink at engine 0.
func (r *earlyRig) instantiate(t *testing.T, req string) {
	t.Helper()
	body, err := appendInstantiate(nil, instantiateMsg{
		Req: req, Service: "a", Rate: 10, UnitBytes: 1250, ProcHint: time.Millisecond, RateRatio: 1, BytesOut: 1250,
		Outs: []outSpec{{To: r.infos[0], ToStage: 1, Rate: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.host.onInstantiate(r.infos[0], body, func(_ []byte, errText string) {
		if errText != "" {
			t.Fatalf("instantiate: %s", errText)
		}
	})
}

func (r *earlyRig) events(kind trace.Kind) []trace.Event {
	var out []trace.Event
	for _, ev := range r.buf.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// A unit that reaches a host before its instantiate message is held, then
// processed after it, in arrival order; the wait counts toward its delay,
// its arrive event says it was early, and the replay is counted.
func TestEarlyUnitsReplayedInArrivalOrder(t *testing.T) {
	r := newEarlyRig(t, Config{})
	sink := r.sink("x")
	replayed := telEarlyUnits.Value()
	for seq := int64(0); seq < 3; seq++ {
		r.sim.RunUntil(time.Duration(seq) * 5 * time.Millisecond)
		r.arrive("x", seq)
	}
	if r.host.HeldUnits() != 3 || r.host.DropsStale != 0 || len(r.events(trace.KindArrive)) != 0 {
		t.Fatalf("before the instantiate: held %d, stale %d, arrive events %d; want 3, 0, 0",
			r.host.HeldUnits(), r.host.DropsStale, len(r.events(trace.KindArrive)))
	}
	const instantiateAt = 50 * time.Millisecond
	r.sim.RunUntil(instantiateAt)
	r.instantiate(t, "x")
	if r.host.HeldUnits() != 0 {
		t.Fatalf("%d units still held after the instantiate", r.host.HeldUnits())
	}
	r.sim.RunUntil(60 * time.Millisecond)
	r.arrive("x", 3) // on time: not early
	r.sim.Run()

	arrivals := r.events(trace.KindArrive)
	if len(arrivals) != 4 {
		t.Fatalf("%d arrive events, want 4", len(arrivals))
	}
	for i, ev := range arrivals {
		wantAt, wantNote := instantiateAt, "a"+earlyNote
		if i == 3 {
			wantAt, wantNote = 60*time.Millisecond, "a"
		}
		if ev.Seq != int64(i) || ev.At != wantAt || ev.Note != wantNote {
			t.Errorf("arrive event %d = seq %d at %v note %q, want seq %d at %v note %q", i, ev.Seq, ev.At, ev.Note, i, wantAt, wantNote)
		}
	}
	if got := telEarlyUnits.Value() - replayed; got != 3 {
		t.Errorf("rasc_stream_early_units_total moved by %d, want 3", got)
	}
	if sink.Received != 4 || sink.OutOfOrder != 0 {
		t.Fatalf("sink received %d units, %d out of order; want 4 in order", sink.Received, sink.OutOfOrder)
	}
	// Units 0..2 waited 50, 45 and 40 ms for their component.
	if waited := 135 * time.Millisecond; sink.TotalDelay < waited {
		t.Errorf("total delay %v does not include the %v the early units waited", sink.TotalDelay, waited)
	}
	tp := r.host.Throughput("x", 0)
	if tp.ForwardedUnits != 4 || tp.DroppedUnits != 0 {
		t.Errorf("host forwarded %d and dropped %d, want 4 and 0", tp.ForwardedUnits, tp.DroppedUnits)
	}
}

// A recompose that re-places a request on a host at another stage makes the
// request live there again, so a straggler of the old composition, addressed
// to the stage the host no longer runs, is held like an early unit although
// no instantiate will come for it. It is counted, as a stale drop, when the
// request is next stopped on the host and not before: a tally taken in
// between finds it in neither count (ROADMAP, "Fix what the baseline
// found" (f): one unit of 75 351 on sim-contended, seed 7).
func TestStragglerOfReplacedStageIsCountedWhenTheRequestStops(t *testing.T) {
	r := newEarlyRig(t, Config{})
	r.sink("x")
	r.instantiate(t, "x") // the old composition: stage 0 here
	r.host.StopRequest("x")
	body, err := appendInstantiate(nil, instantiateMsg{ // the new one: stage 1 here
		Req: "x", Stage: 1, Service: "b", Rate: 10, UnitBytes: 1250, ProcHint: time.Millisecond, RateRatio: 1, BytesOut: 1250,
		Outs: []outSpec{{To: r.infos[0], ToStage: 2, Rate: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.host.onInstantiate(r.infos[0], body, func([]byte, string) {})
	r.arrive("x", 0) // addressed to stage 0
	r.sim.Run()
	if tp := r.host.Throughput("x", 0); r.host.HeldUnits() != 1 || tp.DroppedUnits != 0 || tp.ForwardedUnits != 0 {
		t.Fatalf("after the drain: held %d, dropped %d, forwarded %d; want the straggler held and uncounted", r.host.HeldUnits(), tp.DroppedUnits, tp.ForwardedUnits)
	}
	r.host.StopRequest("x")
	if tp := r.host.Throughput("x", 0); r.host.HeldUnits() != 0 || r.host.DropsStale != 1 || tp.DroppedUnits != 1 {
		t.Fatalf("after the stop: held %d, stale %d, dropped %d; want 0, 1, 1", r.host.HeldUnits(), r.host.DropsStale, tp.DroppedUnits)
	}
}

// A unit for a request the engine has stopped is stale at once, as before
// the buffer existed; an instantiate makes the request live again.
func TestUnitForStoppedRequestIsStaleAtOnce(t *testing.T) {
	r := newEarlyRig(t, Config{})
	sink := r.sink("x")
	r.instantiate(t, "x")
	r.host.StopRequest("x")
	r.arrive("x", 0)
	if r.host.HeldUnits() != 0 || r.host.DropsStale != 1 {
		t.Fatalf("held %d, stale %d; want 0 and 1", r.host.HeldUnits(), r.host.DropsStale)
	}
	if tp := r.host.Throughput("x", 0); tp.DroppedUnits != 1 || tp.DroppedBytes != 1250 {
		t.Fatalf("flow charged %d units / %d bytes, want 1 / 1250", tp.DroppedUnits, tp.DroppedBytes)
	}
	if drops := r.events(trace.KindDrop); len(drops) != 1 || drops[0].Note != "stale" {
		t.Fatalf("drop events = %+v, want one with note stale", drops)
	}
	r.instantiate(t, "x")
	r.arrive("x", 1)
	r.sim.Run()
	if sink.Received != 1 || r.host.DropsStale != 1 {
		t.Fatalf("after the re-instantiate: delivered %d, stale %d; want 1 and 1", sink.Received, r.host.DropsStale)
	}
}

// StopRequest drops the units held for its request, once each and as
// stale, and leaves every other request's alone.
func TestStopRequestDropsOnlyItsHeldUnits(t *testing.T) {
	r := newEarlyRig(t, Config{})
	sinkY := r.sink("y")
	for seq := int64(0); seq < 3; seq++ {
		r.arrive("y", seq)
		if seq < 2 {
			r.arrive("x", seq)
		}
	}
	if r.host.HeldUnits() != 5 {
		t.Fatalf("held %d units, want 5", r.host.HeldUnits())
	}
	r.host.StopRequest("x")
	if r.host.HeldUnits() != 3 || r.host.DropsStale != 2 {
		t.Fatalf("after StopRequest(x): held %d, stale %d; want 3 and 2", r.host.HeldUnits(), r.host.DropsStale)
	}
	if x, y := r.host.Throughput("x", 0), r.host.Throughput("y", 0); x.DroppedUnits != 2 || y.DroppedUnits != 0 {
		t.Fatalf("drops charged: x %d, y %d; want 2 and 0", x.DroppedUnits, y.DroppedUnits)
	}
	r.instantiate(t, "y")
	r.sim.Run()
	if sinkY.Received != 3 || sinkY.OutOfOrder != 0 || r.host.HeldUnits() != 0 {
		t.Fatalf("y delivered %d (%d out of order), %d still held; want 3 in order, 0", sinkY.Received, sinkY.OutOfOrder, r.host.HeldUnits())
	}
	// Stopping again finds nothing to drop.
	r.host.StopRequest("x")
	if r.host.DropsStale != 2 {
		t.Fatalf("second StopRequest(x) moved the stale count to %d", r.host.DropsStale)
	}
}

// The buffer holds QueueCapacity units; one more pushes the oldest out as
// a stale drop.
func TestEarlyBufferEvictsOldest(t *testing.T) {
	const capacity = 4
	r := newEarlyRig(t, Config{QueueCapacity: capacity})
	sink := r.sink("x")
	for seq := int64(0); seq <= capacity; seq++ {
		r.arrive("x", seq)
	}
	if r.host.HeldUnits() != capacity || r.host.DropsStale != 1 {
		t.Fatalf("held %d, stale %d; want %d and 1", r.host.HeldUnits(), r.host.DropsStale, capacity)
	}
	if drops := r.events(trace.KindDrop); len(drops) != 1 || drops[0].Seq != 0 || drops[0].Note != "stale" {
		t.Fatalf("drop events = %+v, want the oldest unit (seq 0) as stale", drops)
	}
	r.instantiate(t, "x")
	r.sim.Run()
	arrivals := r.events(trace.KindArrive)
	if len(arrivals) != capacity {
		t.Fatalf("%d arrive events, want %d", len(arrivals), capacity)
	}
	for i, ev := range arrivals {
		if ev.Seq != int64(i+1) {
			t.Fatalf("replay order = %+v, want seq 1..%d", arrivals, capacity)
		}
	}
	tp := r.host.Throughput("x", 0)
	if sink.Received+tp.DroppedUnits != capacity+1 || r.host.HeldUnits() != 0 {
		t.Fatalf("delivered %d + dropped %d != %d arrived, or %d still held", sink.Received, tp.DroppedUnits, capacity+1, r.host.HeldUnits())
	}
}

// submitRig is an origin (engine 0) and one host per service of the chain
// a → b, with every statistic served locally so that Submit composes and
// sends its instantiate messages at simulator time 0.
func newSubmitRig(t *testing.T, latency func(a, b netsim.NodeID) time.Duration) (*gatherRig, *trace.Buffer) {
	t.Helper()
	return newSubmitRigConfig(t, latency, Config{})
}

// newSubmitRigConfig is newSubmitRig with every engine on cfg.
func newSubmitRigConfig(t *testing.T, latency func(a, b netsim.NodeID) time.Duration, cfg Config) (*gatherRig, *trace.Buffer) {
	t.Helper()
	r := newRig(t, 3, latency, 1e8, cfg)
	r.dir.answers["a"] = stubLookup{hosts: r.hosts(1)}
	r.dir.answers["b"] = stubLookup{hosts: r.hosts(2)}
	origin := r.engines[0]
	origin.SetStatsProvider(func(id overlay.ID) (monitor.Report, bool) {
		return monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8}, true
	})
	buf := trace.NewBuffer(1 << 14)
	for _, e := range r.engines {
		e.SetTracer(buf)
	}
	return r, buf
}

// flowTotals sums one request substream's counters over the rig, and the
// units still held.
func (r *gatherRig) flowTotals(req string) (tp Throughput, held int) {
	for _, e := range r.engines {
		tp.Accumulate(e.Throughput(req, 0))
		held += e.HeldUnits()
	}
	return tp, held
}

// Sources start when the instantiate messages are sent, not when the last
// ack is in, and their head unit leaves in that instant, behind the
// messages; the callback and the application's registration still wait for
// every ack; and the units that overtake the stage-1 host's instantiate
// message (its path from the origin is the slow one) wait there for it, so
// nothing is lost.
func TestSubmitStartsSourcesAtInstantiateSend(t *testing.T) {
	const (
		hop     = 10 * time.Millisecond
		slowHop = 150 * time.Millisecond // origin ↔ stage-1 host
	)
	r, buf := newSubmitRig(t, func(a, b netsim.NodeID) time.Duration {
		if a+b == 2 && a != b { // engines 0 and 2
			return slowHop
		}
		return hop
	})
	origin, stage1 := r.engines[0], r.engines[2]
	replayed := telEarlyUnits.Value()
	var calls int
	var calledAt time.Duration
	origin.Submit(gatherRequest("early", "a", "b"), &core.MinCost{}, time.Second, func(g *core.ExecutionGraph, err error) {
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		calls++
		calledAt = r.sim.Now()
	})
	// Everything up to the instantiate send happened inside Submit.
	if len(origin.sources) != 1 || origin.Sink("early", 0) == nil {
		t.Fatalf("at instantiate-send: %d sources, sink %v; want both in place", len(origin.sources), origin.Sink("early", 0))
	}
	if calls != 0 || origin.ActiveRequests() != 0 {
		t.Fatalf("at instantiate-send: %d callbacks, %d registered applications; want none before the acks", calls, origin.ActiveRequests())
	}

	// Just before the stage-1 host's instantiate lands: the first unit has
	// left the origin, crossed stage 0 and is waiting there.
	r.sim.RunUntil(slowHop - time.Millisecond)
	var emits []trace.Event
	for _, ev := range buf.Events() {
		if ev.Kind == trace.KindEmit {
			emits = append(emits, ev)
		}
	}
	if len(emits) == 0 || emits[0].At != 0 || emits[0].Seq != 0 {
		t.Fatalf("emit events by %v: %+v; want the head unit in the instantiate-send instant, 0", r.sim.Now(), emits)
	}
	// It left the origin's uplink behind the instantiate messages: the
	// stage-0 host, at the same distance, had its component when it came.
	for _, ev := range buf.Events() {
		if ev.Kind == trace.KindArrive && ev.Node == string(r.infos[1].Addr) {
			if ev.Seq != 0 || ev.Note != "a" {
				t.Fatalf("first arrival at the stage-0 host = %+v; want the head unit, not early", ev)
			}
			break
		}
	}
	if stage1.HeldUnits() == 0 || stage1.Components() != 0 {
		t.Fatalf("stage-1 host holds %d units and %d components before its instantiate; want ≥ 1 and 0", stage1.HeldUnits(), stage1.Components())
	}
	if calls != 0 || origin.ActiveRequests() != 0 {
		t.Fatalf("%d callbacks, %d registered applications while an ack is outstanding", calls, origin.ActiveRequests())
	}

	r.sim.RunUntil(time.Second)
	if calls != 1 || !near(calledAt, 2*slowHop) {
		t.Fatalf("%d callbacks, the last at %v; want exactly one, at the slowest ack (%v)", calls, calledAt, 2*slowHop)
	}
	if origin.ActiveRequests() != 1 {
		t.Fatalf("%d registered applications after the acks, want 1", origin.ActiveRequests())
	}
	if emits[0].At >= calledAt {
		t.Fatalf("first unit left at %v, not before the acks at %v", emits[0].At, calledAt)
	}
	if got := telEarlyUnits.Value() - replayed; got == 0 {
		t.Fatal("no early unit was replayed; the scenario no longer covers the buffer")
	}

	origin.StopSources("early")
	r.sim.Run()
	tp, held := r.flowTotals("early")
	if tp.EmittedUnits == 0 || tp.DeliveredUnits != tp.EmittedUnits || tp.DroppedUnits != 0 || held != 0 || stage1.DropsStale != 0 {
		t.Fatalf("emitted %d, delivered %d, dropped %d, held %d, stale %d; want everything delivered",
			tp.EmittedUnits, tp.DeliveredUnits, tp.DroppedUnits, held, stage1.DropsStale)
	}
	if sink := origin.Sink("early", 0); sink.OutOfOrder != 0 {
		t.Fatalf("%d units out of order at the sink", sink.OutOfOrder)
	}
}

// When an instantiate times out the rollback finds the sources already
// running: it stops them, registers nothing, and every host drops what it
// has of the request — the one that acked its component, the one that never
// did the early units it was holding, each once, as stale — so every unit
// emitted is a counted drop.
func TestRollbackStopsSourcesAndDropsHeldUnits(t *testing.T) {
	r, _ := newSubmitRig(t, func(a, b netsim.NodeID) time.Duration { return gatherRTT / 2 })
	origin, stage0, stage1 := r.engines[0], r.engines[1], r.engines[2]
	// The stage-1 host never answers (nor creates) its instantiate.
	stage1.node.RegisterRequest(appInstantiate, func(overlay.NodeInfo, []byte, func([]byte, string)) {})
	const timeout = 300 * time.Millisecond
	req := gatherRequest("rollback", "a", "b")
	req.Substreams[0].Rate = 100
	var calls int
	var gotErr error
	origin.Submit(req, &core.MinCost{}, timeout, func(_ *core.ExecutionGraph, err error) { calls, gotErr = calls+1, err })

	r.sim.RunUntil(timeout - time.Millisecond)
	held := stage1.HeldUnits()
	if held == 0 || stage0.Components() != 1 || len(origin.sources) != 1 {
		t.Fatalf("before the timeout: %d units held at stage 1, %d components at stage 0, %d sources; want > 0, 1, 1",
			held, stage0.Components(), len(origin.sources))
	}
	r.sim.RunUntil(2 * time.Second)
	if calls != 1 || !errors.Is(gotErr, ErrInstantiation) || !errors.Is(gotErr, overlay.ErrTimeout) {
		t.Fatalf("%d callbacks, err = %v; want one ErrInstantiation wrapping the timeout", calls, gotErr)
	}
	if len(origin.sources) != 0 || origin.ActiveRequests() != 0 {
		t.Fatalf("origin keeps %d sources and %d applications after the rollback", len(origin.sources), origin.ActiveRequests())
	}
	for i, e := range r.engines {
		if e.Components() != 0 || e.HeldUnits() != 0 {
			t.Errorf("engine %d keeps %d components and %d held units", i, e.Components(), e.HeldUnits())
		}
	}
	if stage1.DropsStale < int64(held) {
		t.Errorf("stage-1 host counted %d stale drops, held %d units when the rollback came", stage1.DropsStale, held)
	}
	tp, _ := r.flowTotals("rollback")
	stale := stage0.DropsStale + stage1.DropsStale
	if tp.EmittedUnits == 0 || tp.DeliveredUnits != 0 || tp.DroppedUnits != tp.EmittedUnits || stale != tp.EmittedUnits {
		t.Fatalf("emitted %d, delivered %d, dropped %d (%d stale); want every emitted unit dropped once, as stale",
			tp.EmittedUnits, tp.DeliveredUnits, tp.DroppedUnits, stale)
	}
	emitted := tp.EmittedUnits
	r.sim.RunUntil(4 * time.Second)
	if tp, _ = r.flowTotals("rollback"); tp.EmittedUnits != emitted {
		t.Fatalf("the request emitted %d more units after its rollback", tp.EmittedUnits-emitted)
	}
}

// An origin-side Teardown in the same instant as the Submit it names
// cancels the submission, whether it is still gathering (the first lookup
// answers 5 ms later) or already waiting for the instantiate acks: it
// rolls back, registers nothing, leaves no component anywhere, and its one
// callback carries ErrSubmitCancelled.
func TestTeardownDuringSubmitLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lookup time.Duration
	}{{"gathering", 5 * time.Millisecond}, {"instantiating", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := newSubmitRig(t, func(a, b netsim.NodeID) time.Duration { return gatherRTT / 2 })
			r.dir.answers["a"] = stubLookup{after: tc.lookup, hosts: r.hosts(1)}
			origin := r.engines[0]
			req := gatherRequest("cancel", "a", "b")
			req.Substreams[0].Rate = 100
			var calls int
			var gotErr error
			origin.Submit(req, &core.MinCost{}, time.Second, func(_ *core.ExecutionGraph, err error) { calls, gotErr = calls+1, err })
			origin.Teardown(&core.ExecutionGraph{Request: req}, time.Second)
			r.sim.RunUntil(2 * time.Second)

			if calls != 1 || !errors.Is(gotErr, ErrSubmitCancelled) {
				t.Fatalf("%d callbacks, err = %v; want one ErrSubmitCancelled", calls, gotErr)
			}
			if origin.ActiveRequests() != 0 || len(origin.sources) != 0 {
				t.Fatalf("origin keeps %d applications and %d sources", origin.ActiveRequests(), len(origin.sources))
			}
			for i, e := range r.engines {
				if e.Components() != 0 || e.HeldUnits() != 0 {
					t.Errorf("engine %d keeps %d components and %d held units", i, e.Components(), e.HeldUnits())
				}
			}
			if tp, _ := r.flowTotals("cancel"); tp.EmittedUnits != tp.DeliveredUnits+tp.DroppedUnits {
				t.Fatalf("emitted %d, delivered %d, dropped %d; want every emitted unit accounted for",
					tp.EmittedUnits, tp.DeliveredUnits, tp.DroppedUnits)
			}
		})
	}
}

// A submission the admission gate parked and later promotes is replayed
// through Submit, so it too streams from the instantiate send and registers
// at the acks.
func TestPromotedReplayStartsSourcesAtInstantiateSend(t *testing.T) {
	const slowHop = 150 * time.Millisecond // origin ↔ stage-1 host
	r, _ := newSubmitRig(t, func(a, b netsim.NodeID) time.Duration {
		if a+b == 2 && a != b {
			return slowHop
		}
		return gatherRTT / 2
	})
	origin := r.engines[0]
	gate := tenant.NewGate(tenant.Config{CapacityBps: 1e9, MaxTenants: 1})
	origin.SetTenantGate(gate)

	var first *core.ExecutionGraph
	origin.Submit(gatherRequest("first", "a", "b"), &core.MinCost{}, time.Second, func(g *core.ExecutionGraph, err error) {
		if err != nil {
			t.Errorf("first submit: %v", err)
		}
		first = g
	})
	var queued error
	origin.Submit(gatherRequest("second", "a", "b"), &core.MinCost{}, time.Second, func(_ *core.ExecutionGraph, err error) { queued = err })
	if !errors.Is(queued, tenant.ErrAdmissionQueued) {
		t.Fatalf("second submit: %v, want ErrAdmissionQueued", queued)
	}
	r.sim.RunUntil(time.Second)
	if first == nil {
		t.Fatal("first submit did not compose")
	}

	// Tearing the first down promotes the second; its replay composes from
	// local statistics, so its instantiate messages leave in the same instant.
	origin.Teardown(first, time.Second)
	promotedAt := r.sim.Now()
	r.sim.RunUntil(promotedAt + time.Millisecond)
	if src := origin.sources[flowKey{"second", 0}]; src == nil || origin.ActiveRequests() != 0 {
		t.Fatalf("1 ms after the promotion: source %v, %d registered applications; want a running source and no registration before the acks",
			src, origin.ActiveRequests())
	}
	r.sim.RunUntil(promotedAt + 2*slowHop - time.Millisecond)
	if origin.ActiveRequests() != 0 {
		t.Fatal("the replay registered before its slowest ack")
	}
	r.sim.RunUntil(promotedAt + time.Second)
	if origin.ActiveRequests() != 1 || !gate.Has("second") {
		t.Fatalf("%d registered applications, gate holds second: %v; want the promoted application running", origin.ActiveRequests(), gate.Has("second"))
	}
	origin.StopSources("second")
	r.sim.Run()
	tp, held := r.flowTotals("second")
	if tp.EmittedUnits == 0 || tp.DeliveredUnits != tp.EmittedUnits || held != 0 {
		t.Fatalf("second: emitted %d, delivered %d, dropped %d, held %d; want everything delivered",
			tp.EmittedUnits, tp.DeliveredUnits, tp.DroppedUnits, held)
	}
}
