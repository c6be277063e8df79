package stream_test

import (
	"errors"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/spec"
)

const rpcTimeout = 5 * time.Second

// runUntilDone advances virtual time until the flag is set (or a deadline
// passes). Sim.Run() cannot be used once sources are streaming: they
// reschedule themselves forever, so the event queue never drains.
func runUntilDone(t *testing.T, s *deploy.System, done *bool) {
	t.Helper()
	for i := 0; i < 600 && !*done; i++ {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if !*done {
		t.Fatal("submit callback never ran")
	}
}

// submit composes req from origin and fails the test on error.
func submit(t *testing.T, s *deploy.System, origin int, req spec.Request, c core.Composer) *core.ExecutionGraph {
	t.Helper()
	var graph *core.ExecutionGraph
	var gotErr error
	done := false
	s.Engines[origin].Submit(req, c, rpcTimeout, func(g *core.ExecutionGraph, err error) {
		graph, gotErr, done = g, err, true
	})
	runUntilDone(t, s, &done)
	if gotErr != nil {
		t.Fatalf("submit: %v", gotErr)
	}
	return graph
}

func simpleRequest(id string, rate int, chain ...string) spec.Request {
	return spec.Request{
		ID:         id,
		UnitBytes:  1250,
		Substreams: []spec.Substream{{Services: chain, Rate: rate}},
	}
}

func TestEndToEndDelivery(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 1})
	req := simpleRequest("r1", 10, "filter", "transcode")
	g := submit(t, s, 0, req, &core.MinCost{})
	if err := core.CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	// Run 10 simulated seconds of streaming.
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	sink := s.Engines[0].Sink("r1", 0)
	if sink == nil {
		t.Fatal("no sink at origin")
	}
	emitted := s.Engines[0].Throughput("r1", 0).EmittedUnits
	if emitted < 80 {
		t.Fatalf("source emitted only %d units in 10s at rate 10", emitted)
	}
	if sink.Received < emitted*8/10 {
		t.Fatalf("delivered %d of %d units", sink.Received, emitted)
	}
	if sink.MeanDelay() <= 0 {
		t.Fatal("mean delay must be positive")
	}
	if sink.MeanDelay() > 2*time.Second {
		t.Fatalf("mean delay implausibly high: %v", sink.MeanDelay())
	}
}

func TestDeliveryMeetsRate(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 2})
	req := simpleRequest("r1", 8, "filter")
	submit(t, s, 3, req, &core.MinCost{})
	start := s.Sim.Now()
	s.Sim.RunUntil(start + 20*time.Second)
	sink := s.Engines[3].Sink("r1", 0)
	perSec := float64(sink.Received) / 20
	if perSec < 7 {
		t.Fatalf("delivery rate %.1f units/sec, want ≈8", perSec)
	}
}

func TestMultiSubstreamRequest(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 16, Seed: 3})
	req := spec.Request{
		ID:        "multi",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{"filter", "aggregate"}, Rate: 6},
			{Services: []string{"annotate"}, Rate: 4},
		},
	}
	submit(t, s, 1, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	for l := 0; l < 2; l++ {
		sink := s.Engines[1].Sink("multi", l)
		if sink == nil || sink.Received == 0 {
			t.Fatalf("substream %d delivered nothing", l)
		}
	}
}

func TestAllComposersDeliver(t *testing.T) {
	for _, mk := range []func() core.Composer{
		func() core.Composer { return &core.MinCost{} },
		func() core.Composer { return core.Greedy{} },
		func() core.Composer { return core.Random{} },
	} {
		c := mk()
		s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 4})
		req := simpleRequest("r-"+c.Name(), 5, "filter", "encrypt")
		submit(t, s, 0, req, c)
		s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
		sink := s.Engines[0].Sink("r-"+c.Name(), 0)
		if sink.Received == 0 {
			t.Fatalf("%s: nothing delivered", c.Name())
		}
	}
}

func TestSubmitRejectsOversizedRequest(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 8, Seed: 5})
	// 10 Mbps max uplinks; 1250-byte units at rate 5000 = 50 Mbps.
	req := simpleRequest("huge", 5000, "filter")
	var gotErr error
	done := false
	s.Engines[0].Submit(req, &core.MinCost{}, rpcTimeout, func(g *core.ExecutionGraph, err error) { gotErr, done = err, true })
	runUntilDone(t, s, &done)
	if !errors.Is(gotErr, core.ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want ErrNoFeasiblePlacement", gotErr)
	}
}

func TestSubmitUnknownService(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 8, Seed: 6})
	req := simpleRequest("u", 5, "no-such-service")
	var gotErr error
	done := false
	s.Engines[0].Submit(req, &core.MinCost{}, rpcTimeout, func(g *core.ExecutionGraph, err error) {
		gotErr = err
		done = true
	})
	runUntilDone(t, s, &done)
	if gotErr == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestSubmitInvalidRequest(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 4, Seed: 7})
	var gotErr error
	s.Engines[0].Submit(spec.Request{ID: "bad"}, &core.MinCost{}, rpcTimeout, func(g *core.ExecutionGraph, err error) { gotErr = err })
	if gotErr == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestTeardownStopsStreaming(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 8})
	req := simpleRequest("tear", 10, "filter")
	g := submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	sink := s.Engines[0].Sink("tear", 0)
	before := sink.Received
	if before == 0 {
		t.Fatal("nothing delivered before teardown")
	}
	s.Engines[0].Teardown(g, rpcTimeout)
	s.Sim.RunUntil(s.Sim.Now() + time.Second) // drain in-flight units
	after := sink.Received
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	if sink.Received > after {
		t.Fatalf("units still arriving after teardown: %d -> %d", after, sink.Received)
	}
	// Components must be gone from every engine.
	for i, e := range s.Engines {
		if e.Components() != 0 {
			t.Fatalf("engine %d still hosts %d components", i, e.Components())
		}
	}
}

func TestRateSplittingDeliversAcrossInstances(t *testing.T) {
	// Constrain the topology so a single host cannot carry the stream:
	// every node gets ~1 Mbps links, the request needs 800 kbps, and
	// concurrent requests force splitting. Simpler: request rate beyond
	// any single host's min(b_in,b_out) in units.
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 9})
	// 10 Mbps max → 1000 units/sec of 1250B; use a 25000-byte unit so
	// capacity is ≈ 10-50 units/sec and a rate of 45 forces a split on
	// most topologies.
	req := spec.Request{
		ID:         "split",
		UnitBytes:  25000,
		Substreams: []spec.Substream{{Services: []string{"transcode"}, Rate: 45}},
	}
	var graph *core.ExecutionGraph
	var gotErr error
	done := false
	s.Engines[0].Submit(req, &core.MinCost{}, rpcTimeout, func(g *core.ExecutionGraph, err error) { graph, gotErr, done = g, err, true })
	runUntilDone(t, s, &done)
	if gotErr != nil {
		t.Skipf("topology too small for the split scenario: %v", gotErr)
	}
	if len(graph.Placements) < 2 {
		t.Skip("seed did not force a split; covered deterministically in core tests")
	}
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	sink := s.Engines[0].Sink("split", 0)
	emitted := s.Engines[0].Throughput("split", 0).EmittedUnits
	if sink.Received < emitted/2 {
		t.Fatalf("split delivery too lossy: %d of %d", sink.Received, emitted)
	}
}

func TestStatsReflectLoad(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 10})
	req := simpleRequest("load", 10, "filter")
	g := submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	// The filter host's monitor must show arrivals.
	host := g.Placements[0].Host
	for i, e := range s.Engines {
		if e.Node().ID() == host.ID {
			rep := e.Monitor.Report(s.Sim.Now())
			if rep.InBpsUsed <= 0 {
				t.Fatal("host monitor shows no inbound traffic")
			}
			found := false
			for _, cs := range rep.Components {
				if cs.Service == "filter" && cs.Arrived > 0 {
					found = true
				}
			}
			if !found {
				t.Fatal("component stats missing")
			}
			return
		}
		_ = i
	}
	t.Fatal("placement host not found among engines")
}

func TestSequentialRequestsAccumulate(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 16, Seed: 11})
	for i := 0; i < 4; i++ {
		req := simpleRequest("seq-"+string(rune('a'+i)), 5, "filter", "project")
		submit(t, s, i, req, &core.MinCost{})
		s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
	}
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	for i := 0; i < 4; i++ {
		sink := s.Engines[i].Sink("seq-"+string(rune('a'+i)), 0)
		if sink == nil || sink.Received == 0 {
			t.Fatalf("request %d delivered nothing", i)
		}
	}
}
