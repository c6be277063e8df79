package stream_test

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
)

// churnTopology is upgradeTopology at testbed scale: a well-provisioned
// origin (node 0), one capable worker (node 1, ~100 of churnRequest's
// 12.5 kB units/sec) and thirty small workers (~10 units/sec each). The
// units are large so that the links are: a small worker's 1 Mbps leaves
// gossip's ~130 kbps of control traffic headroom even with the worker's
// stream capacity taken, where a 100 kbps link carrying 1250-byte units
// was starved by gossip alone.
func churnTopology() *netsim.Topology {
	const n = 32
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
			topo.UpBps[i], topo.DownBps[i] = 3e7, 3e7
		case 1:
			topo.UpBps[i], topo.DownBps[i] = 1e7, 1e7
		default:
			topo.UpBps[i], topo.DownBps[i] = 1e6, 1e6
		}
	}
	return topo
}

// churnRequest asks for one substream of "filter" in 12.5 kB units.
func churnRequest(id string, rate int) spec.Request {
	req := simpleRequest(id, rate, "filter")
	req.UnitBytes = 12500
	return req
}

// TestUpgradeChurnNoDuplicateAttempts runs the upgrade scenario on the
// paper's 32-node scale with an aggressive 1-second check interval and
// membership churn, and pins the controller's dedup guarantees: upgrade
// attempts racing the periodic check are absorbed by single-flight and
// cooldown (the attempt count stays bounded by the cooldown pacing, not
// the check frequency), and once the stream reaches its desired rate no
// further attempts fire.
func TestUpgradeChurnNoDuplicateAttempts(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes:           32,
		Seed:            26,
		Topology:        churnTopology(),
		ServiceNames:    []string{"filter"},
		ServicesPerNode: 1,
		EnableGossip:    true,
		Gossip:          gossip.Config{ProbeTimeout: 500 * time.Millisecond},
	})
	origin := s.Engines[0]
	// Scarcity: only the big worker and two small workers keep offering
	// "filter" (hard capacity cap ≈ 100+10+10 units/sec, of which the
	// competitor takes 85 — well short of the desired 40). Withdraw before
	// digests disseminate so the view converges on the final provider set.
	for i := 0; i < 32; i++ {
		if i != 1 && i != 2 && i != 3 {
			s.Dirs[i].Withdraw("filter")
		}
	}
	s.Sim.RunUntil(s.Sim.Now() + 20*time.Second)

	// The competitor occupies most of the big worker.
	comp := churnRequest("competitor", 85)
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
	admittedAt := s.Sim.Now()
	// Three anti-entropy rounds: the origin composes from its gossip view,
	// and the big worker's digest must be one taken under the competitor.
	s.Sim.RunUntil(s.Sim.Now() + 30*time.Second)

	// Preconditions, so that a failure below is the controller's and not
	// gossip's (ROADMAP finding (d): on links gossip's own traffic fills,
	// live members are declared dead and the providers can be among them).
	if sum := s.Gossip[0].Summary(); sum.Dead != 0 {
		t.Fatalf("precondition: every node is alive, but the origin's gossip view is %+v", sum)
	}
	if r, ok := s.Gossip[0].ReportFor(s.Nodes[1].ID()); !ok || r.At < admittedAt {
		t.Fatalf("precondition: the origin's view of the big worker (taken at %v, held: %v) predates the competitor (%v)", r.At, ok, admittedAt)
	}
	const desiredRate = 40
	req := churnRequest("upgrade-me", desiredRate)
	done = false
	var g *core.ExecutionGraph
	var subErr error
	origin.Submit(req, &core.MinCost{BestEffortFraction: 0.1}, 10*time.Second, func(gr *core.ExecutionGraph, err error) {
		done = true
		g, subErr = gr, err
	})
	for j := 0; j < 200 && !done; j++ {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if g == nil {
		t.Fatalf("best-effort admission failed outright: %v", subErr)
	}
	if admitted := g.Request.Substreams[0].Rate; admitted >= desiredRate {
		t.Fatalf("admission landed at full rate %d; contention broken", admitted)
	}
	// A 1-second interval publishes UpgradePossible far faster than an
	// upgrade attempt completes; the default cooldown (2×interval) is what
	// paces attempts.
	origin.EnableAdaptation(stream.AdaptationConfig{Interval: time.Second})
	defer origin.DisableAdaptation()

	fullAttempts := func() int64 { return origin.Recompositions() - origin.Reallocations() }

	// Phase 1: capacity is still taken, so every attempt re-admits below
	// the desired rate and the check keeps publishing. Attempts must pace
	// at the cooldown, not the check interval.
	s.Sim.RunUntil(s.Sim.Now() + 4*time.Second)
	// Membership churn mid-phase: kill two tiny workers that host nothing
	// of ours; their member-dead events drain through the same controller
	// as the racing upgrade events.
	streaming := hostIndexes(s, g)
	killed := 0
	for i := 31; i >= 2 && killed < 2; i-- {
		if !streaming[i] {
			s.Kill(i)
			killed++
		}
	}
	s.Sim.RunUntil(s.Sim.Now() + 4*time.Second)
	attempts := fullAttempts()
	if attempts == 0 {
		t.Fatal("no upgrade attempted while admitted below desired rate")
	}
	// 8 seconds of racing 1s-interval checks: without single-flight and
	// cooldown dedup there would be ≥8 attempts; the cooldown allows ~3.
	if attempts > 6 {
		t.Fatalf("%d upgrade attempts in 8s; duplicates raced the periodic check", attempts)
	}

	// Phase 2: capacity returns; the next attempt must land at the full
	// desired rate.
	s.Engines[1].Teardown(compGraph, 5*time.Second)
	deadline := s.Sim.Now() + 60*time.Second
	wantPeriod := time.Second / desiredRate
	for s.Sim.Now() < deadline {
		if sink := origin.Sink("upgrade-me", 0); sink != nil && sink.Period == wantPeriod {
			break
		}
		s.Sim.RunUntil(s.Sim.Now() + time.Second)
	}
	sink := origin.Sink("upgrade-me", 0)
	if sink == nil || sink.Period != wantPeriod {
		t.Fatalf("stream never upgraded to the desired rate after capacity returned")
	}

	// Phase 3: at the desired rate there is nothing to upgrade; the
	// attempt counter must hold still through further periodic checks.
	settled := fullAttempts()
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	if got := fullAttempts(); got != settled {
		t.Fatalf("upgrade attempts kept firing after reaching the desired rate: %d -> %d", settled, got)
	}
	// And delivery actually flows at the upgraded rate. Incremental
	// reallocations may still re-place the stream (consolidating once
	// fresher digests arrive), which replaces the sink and resets its
	// counter — accumulate per-window deltas with reset handling.
	var delivered int64
	last := origin.Sink("upgrade-me", 0).Received
	for i := 0; i < 10; i++ {
		s.Sim.RunUntil(s.Sim.Now() + time.Second)
		cur := origin.Sink("upgrade-me", 0).Received
		d := cur - last
		if d < 0 {
			d = cur
		}
		delivered += d
		last = cur
	}
	gotRate := float64(delivered) / 10
	if gotRate < 0.7*desiredRate {
		t.Fatalf("post-upgrade delivery rate %.1f, want ≈%d", gotRate, desiredRate)
	}
}

// TestFailedRecomposeRearmsWithBackoff is the regression test for the
// recomposing-flag lifecycle: a recompose attempt that fails (here: the
// only provider of the service is dead, so composition is infeasible)
// must re-arm and retry with exponential backoff rather than stall until
// the next periodic event. Under the old one-shot flag the origin would
// attempt exactly once; the controller's backoff keeps retrying well
// before the next check interval.
func TestFailedRecomposeRearmsWithBackoff(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes:           8,
		Seed:            27,
		ServiceNames:    []string{"filter"},
		ServicesPerNode: 1,
	})
	// Leave node 1 as the sole provider.
	for i := 0; i < 8; i++ {
		if i != 1 {
			s.Dirs[i].Withdraw("filter")
		}
	}
	s.Sim.Run()
	origin := s.Engines[0]
	req := simpleRequest("rearm", 5, "filter")
	submit(t, s, 0, req, &core.MinCost{})
	// A long interval separates the periodic checks by a full minute; a
	// short RPC timeout keeps each doomed attempt brief.
	origin.EnableAdaptation(stream.AdaptationConfig{
		Interval: 30 * time.Second,
		Timeout:  time.Second,
	})
	defer origin.DisableAdaptation()
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	s.Kill(1)
	// First check at ~30s sees the dead stream and publishes; every
	// recompose attempt fails (no provider left). By 55s — still before
	// the second periodic check — backoff must have driven several
	// attempts.
	s.Sim.RunUntil(s.Sim.Now() + 27*time.Second)
	first := origin.Recompositions()
	if first == 0 {
		t.Fatal("degraded stream never triggered a recompose")
	}
	s.Sim.RunUntil(s.Sim.Now() + 23*time.Second)
	got := origin.Recompositions()
	if got < 3 {
		t.Fatalf("failed recompose did not re-arm: %d attempts after %d initial, want ≥3 via backoff",
			got, first)
	}
}
