package stream_test

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/stream"
)

// hostIndexes maps a graph's placement hosts to engine indexes.
func hostIndexes(s *deploy.System, g *core.ExecutionGraph) map[int]bool {
	byID := map[overlay.ID]int{}
	for i, e := range s.Engines {
		byID[e.Node().ID()] = i
	}
	out := map[int]bool{}
	for _, p := range g.Placements {
		out[byID[p.Host.ID]] = true
	}
	return out
}

func TestKillStopsDelivery(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 21})
	req := simpleRequest("kill-test", 10, "filter")
	g := submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	sink := s.Engines[0].Sink("kill-test", 0)
	if sink.Received == 0 {
		t.Fatal("no delivery before failure")
	}
	// Kill the single filter host.
	hosts := hostIndexes(s, g)
	for i := range hosts {
		s.Kill(i)
	}
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second) // drain in-flight units
	before := sink.Received
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	if sink.Received != before {
		t.Fatalf("units still delivered through a dead host: %d -> %d", before, sink.Received)
	}
}

func TestAdaptationRecoversFromFailure(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 22})
	origin := s.Engines[0]
	origin.EnableAdaptation(stream.AdaptationConfig{Interval: 3 * time.Second})
	defer origin.DisableAdaptation()
	req := simpleRequest("adapt-test", 10, "filter")
	g := submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	// Kill every host of the current graph (but not the origin).
	for i := range hostIndexes(s, g) {
		if i != 0 {
			s.Kill(i)
		}
	}
	// Give adaptation time to notice (one or two intervals), re-compose
	// (stats RPC to the dead host must time out), and stream again.
	s.Sim.RunUntil(s.Sim.Now() + 40*time.Second)
	if origin.Recompositions() == 0 {
		t.Fatal("adaptation never re-composed")
	}
	sink := origin.Sink("adapt-test", 0)
	if sink == nil {
		t.Fatal("no sink after re-composition")
	}
	// Delivery must have resumed: fresh sink accrues units post-recovery.
	recovered := sink.Received
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	if sink.Received <= recovered {
		t.Fatalf("no delivery after re-composition: %d -> %d", recovered, sink.Received)
	}
}

func TestAdaptationLeavesHealthyStreamsAlone(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 23})
	origin := s.Engines[0]
	origin.EnableAdaptation(stream.AdaptationConfig{Interval: 2 * time.Second})
	defer origin.DisableAdaptation()
	req := simpleRequest("healthy", 10, "filter", "encrypt")
	submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 30*time.Second)
	if origin.Recompositions() != 0 {
		t.Fatalf("healthy stream re-composed %d times", origin.Recompositions())
	}
	if sink := origin.Sink("healthy", 0); sink.Received == 0 {
		t.Fatal("healthy stream stopped delivering")
	}
}

func TestDisableAdaptationStopsChecks(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 24})
	origin := s.Engines[0]
	origin.EnableAdaptation(stream.AdaptationConfig{Interval: 2 * time.Second})
	req := simpleRequest("disabled", 10, "filter")
	g := submit(t, s, 0, req, &core.MinCost{})
	origin.DisableAdaptation()
	for i := range hostIndexes(s, g) {
		if i != 0 {
			s.Kill(i)
		}
	}
	s.Sim.RunUntil(s.Sim.Now() + 20*time.Second)
	if origin.Recompositions() != 0 {
		t.Fatal("disabled adaptation still re-composed")
	}
}

// upgradeTopology hand-crafts scarcity: a well-provisioned origin (node
// 0), one capable worker (node 1) and six tiny workers, all offering
// "filter".
func upgradeTopology() *netsim.Topology {
	const n = 8
	topo := &netsim.Topology{
		UpBps:         make([]float64, n),
		DownBps:       make([]float64, n),
		LatencyMatrix: make([][]time.Duration, n),
		Site:          make([]int, n),
	}
	for i := 0; i < n; i++ {
		topo.LatencyMatrix[i] = make([]time.Duration, n)
		for j := 0; j < n; j++ {
			if i != j {
				topo.LatencyMatrix[i][j] = 10 * time.Millisecond
			}
		}
		switch i {
		case 0:
			topo.UpBps[i], topo.DownBps[i] = 3e6, 3e6 // origin
		case 1:
			topo.UpBps[i], topo.DownBps[i] = 1e6, 1e6 // big worker: 100 u/s
		default:
			topo.UpBps[i], topo.DownBps[i] = 2e4, 2e4 // tiny: 2 u/s
		}
	}
	return topo
}

func TestAdaptationUpgradesBestEffortStream(t *testing.T) {
	// One big worker carries the load; a competitor occupies most of it,
	// so the best-effort request is admitted below its desired rate.
	// When the competitor stops, the upgrade path must restore the full
	// rate.
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes: 8, Seed: 25,
		Topology:        upgradeTopology(),
		ServiceNames:    []string{"filter"},
		ServicesPerNode: 1,
	})
	origin := s.Engines[0]
	// The origin must not host components itself (its big links would
	// absorb the whole request): withdraw its registration.
	s.Dirs[0].Withdraw("filter")
	s.Sim.Run()
	// The competitor (origin = the big worker itself) occupies ~85 of
	// the big worker's ~100 units/sec.
	comp := simpleRequest("competitor", 85, "filter")
	var compGraph *core.ExecutionGraph
	done := false
	s.Engines[1].Submit(comp, &core.MinCost{BestEffortFraction: 0.3}, 10*time.Second, func(g *core.ExecutionGraph, err error) {
		done = true
		compGraph = g
	})
	for j := 0; j < 200 && !done; j++ {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if compGraph == nil {
		t.Fatal("competitor not admitted")
	}
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)

	// Best-effort submit for 40 units/sec: the big worker is mostly
	// taken and the tiny workers add ~12, so admission lands well below
	// 40.
	const desiredRate = 40
	req := simpleRequest("upgrade-me", desiredRate, "filter")
	done = false
	var g *core.ExecutionGraph
	origin.Submit(req, &core.MinCost{BestEffortFraction: 0.1}, 10*time.Second, func(gr *core.ExecutionGraph, err error) {
		done = true
		g = gr
	})
	for j := 0; j < 200 && !done; j++ {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if g == nil {
		t.Fatal("best-effort admission failed outright")
	}
	admitted := g.Request.Substreams[0].Rate
	if admitted >= desiredRate {
		t.Fatalf("admission landed at full rate %d; contention broken", admitted)
	}
	origin.EnableAdaptation(stream.AdaptationConfig{Interval: 4 * time.Second})
	defer origin.DisableAdaptation()

	// Free capacity and wait for upgrade attempts (stats windows must
	// also see the competitor's traffic disappear).
	s.Engines[1].Teardown(compGraph, 5*time.Second)
	s.Sim.RunUntil(s.Sim.Now() + 60*time.Second)

	if origin.Recompositions() == 0 {
		t.Fatal("upgrade never attempted")
	}
	// The sink's period reflects the admitted rate: after the upgrade it
	// must correspond to the full desired rate.
	sink := origin.Sink("upgrade-me", 0)
	if sink == nil {
		t.Fatal("sink missing after upgrade")
	}
	wantPeriod := time.Second / desiredRate
	if sink.Period != wantPeriod {
		t.Fatalf("post-upgrade period = %v, want %v (rate %d)", sink.Period, wantPeriod, desiredRate)
	}
	// And it must actually deliver at the upgraded rate.
	before := sink.Received
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	gotRate := float64(origin.Sink("upgrade-me", 0).Received-before) / 10
	if gotRate < 0.7*desiredRate {
		t.Fatalf("post-upgrade delivery rate %.1f, want ≈%d", gotRate, desiredRate)
	}
}
