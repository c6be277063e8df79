package deploy

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
)

func TestNewSystemPlacement(t *testing.T) {
	s := NewSystem(SystemOptions{Nodes: 16, Seed: 1})
	if len(s.Engines) != 16 || len(s.Dirs) != 16 || len(s.Stores) != 16 {
		t.Fatal("system components missing")
	}
	for i, svcs := range s.Placement {
		if len(svcs) != 5 {
			t.Fatalf("node %d announced %d services, want 5", i, len(svcs))
		}
		seen := map[string]bool{}
		for _, svc := range svcs {
			if seen[svc] {
				t.Fatalf("node %d announced %q twice", i, svc)
			}
			seen[svc] = true
		}
	}
}

func TestNewSystemServicesDiscoverable(t *testing.T) {
	s := NewSystem(SystemOptions{Nodes: 16, Seed: 2})
	// Count providers for each service through lookups from node 0.
	total := 0
	for _, svc := range services.Standard().Names() {
		var hosts []overlay.NodeInfo
		s.Dirs[0].Lookup(svc, 5*time.Second, func(h []overlay.NodeInfo, err error) {
			if err != nil {
				t.Errorf("%s: %v", svc, err)
			}
			hosts = h
		})
		s.Sim.Run()
		total += len(hosts)
	}
	if total != 16*5 {
		t.Fatalf("discoverable registrations = %d, want 80", total)
	}
}

func TestNewSystemHeterogeneousCPU(t *testing.T) {
	s := NewSystem(SystemOptions{Nodes: 8, Seed: 3, HeterogeneousCPU: true})
	speeds := map[float64]bool{}
	for _, e := range s.Engines {
		speeds[e.Config().SpeedFactor] = true
	}
	if len(speeds) < 4 {
		t.Fatalf("expected varied speed factors, got %d distinct", len(speeds))
	}
	s2 := NewSystem(SystemOptions{Nodes: 8, Seed: 3})
	for _, e := range s2.Engines {
		if e.Config().SpeedFactor != 1 {
			t.Fatal("homogeneous system must use speed factor 1")
		}
	}
}

func TestNewSystemServiceSubset(t *testing.T) {
	s := NewSystem(SystemOptions{
		Nodes:           6,
		Seed:            4,
		ServiceNames:    []string{"filter", "encrypt"},
		ServicesPerNode: 2,
	})
	for i, svcs := range s.Placement {
		if len(svcs) != 2 {
			t.Fatalf("node %d announced %v", i, svcs)
		}
	}
}

func TestNewSystemDeterministicPlacement(t *testing.T) {
	a := NewSystem(SystemOptions{Nodes: 8, Seed: 5})
	b := NewSystem(SystemOptions{Nodes: 8, Seed: 5})
	for i := range a.Placement {
		if len(a.Placement[i]) != len(b.Placement[i]) {
			t.Fatal("placement diverged")
		}
		for j := range a.Placement[i] {
			if a.Placement[i][j] != b.Placement[i][j] {
				t.Fatal("placement diverged")
			}
		}
	}
}

// failoverRecompositionDelay composes a single-service request whose
// component lands on a remote node, enables origin-side adaptation with a
// long check interval, kills the hosting node, and returns how much
// virtual time passes before the origin re-composes.
func failoverRecompositionDelay(t *testing.T, withGossip bool) time.Duration {
	t.Helper()
	s := NewSystem(SystemOptions{
		Nodes:        16,
		Seed:         7,
		EnableGossip: withGossip,
		// Above the topology's worst inter-site RTT so healthy members
		// are never falsely suspected.
		Gossip: gossip.Config{ProbeTimeout: 500 * time.Millisecond},
	})
	const origin = 0
	offered := map[string]bool{}
	for _, svc := range s.Placement[origin] {
		offered[svc] = true
	}
	var svc string
	for _, name := range services.Standard().Names() {
		if !offered[name] {
			svc = name
			break
		}
	}
	if svc == "" {
		t.Fatal("origin offers every service; cannot force a remote placement")
	}
	req := spec.Request{
		ID:         "failover",
		UnitBytes:  1250,
		Substreams: []spec.Substream{{Services: []string{svc}, Rate: 5}},
	}
	var graph *core.ExecutionGraph
	done := false
	s.Engines[origin].Submit(req, &core.MinCost{}, 10*time.Second, func(g *core.ExecutionGraph, err error) {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		graph, done = g, true
	})
	deadline := s.Sim.Now() + 60*time.Second
	for !done && s.Sim.Now() < deadline {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if !done {
		t.Fatal("composition did not complete")
	}
	s.Engines[origin].EnableAdaptation(stream.AdaptationConfig{Interval: 15 * time.Second})
	victim := -1
	for _, p := range graph.Placements {
		for i, n := range s.Nodes {
			if i != origin && n.ID() == p.Host.ID {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("no remote placement to kill")
	}
	// Stream briefly so pre-failure delivery statistics exist.
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
	s.Kill(victim)
	killedAt := s.Sim.Now()
	stop := killedAt + 120*time.Second
	for s.Engines[origin].Recompositions() == 0 && s.Sim.Now() < stop {
		s.Sim.RunUntil(s.Sim.Now() + 250*time.Millisecond)
	}
	if s.Engines[origin].Recompositions() == 0 {
		t.Fatal("origin never re-composed after the host was killed")
	}
	return s.Sim.Now() - killedAt
}

// recomposeOnly hides every method of the wrapped composer but Compose
// and Name: a composer without core.DeltaComposer makes each adaptation
// action fall back to teardown and full recompose.
type recomposeOnly struct{ core.Composer }

// failoverDipDuration builds a gossip-enabled deployment with the
// adaptation control plane armed, submits a two-substream application
// whose substreams land on disjoint remote hosts, kills the host carrying
// substream 0, and returns the cumulative virtual time the application's
// total delivered rate spends below 30% of its healthy level over the
// 40 seconds after the kill. The periodic check interval is far beyond
// the horizon, so gossip member-dead detection is the trigger in both
// modes; only the reallocation strategy differs. The threshold sits below
// the healthy substream's share, so time accrues only while delivery of
// BOTH substreams is disturbed — which is exactly what teardown-recompose
// causes and incremental reallocation avoids.
func failoverDipDuration(t *testing.T, fullOnly bool) time.Duration {
	t.Helper()
	adapt := stream.AdaptationConfig{Interval: 10 * time.Minute}
	if fullOnly {
		adapt.Composer = recomposeOnly{&core.MinCost{}}
	}
	s := NewSystem(SystemOptions{
		Nodes:        16,
		Seed:         7,
		EnableGossip: true,
		Gossip:       gossip.Config{ProbeTimeout: 500 * time.Millisecond},
		Adaptation:   &adapt,
	})
	const origin = 0
	// Two services the origin does not offer, so both substreams land on
	// remote hosts.
	offered := map[string]bool{}
	for _, svc := range s.Placement[origin] {
		offered[svc] = true
	}
	var remote []string
	for _, name := range services.Standard().Names() {
		if !offered[name] {
			remote = append(remote, name)
		}
	}
	if len(remote) < 2 {
		t.Fatal("origin offers too many services; cannot force remote placements")
	}
	req := spec.Request{
		ID:        "dip",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{remote[0]}, Rate: 10},
			{Services: []string{remote[1]}, Rate: 10},
		},
	}
	var graph *core.ExecutionGraph
	done := false
	s.Engines[origin].Submit(req, &core.MinCost{}, 10*time.Second, func(g *core.ExecutionGraph, err error) {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		graph, done = g, true
	})
	deadline := s.Sim.Now() + 60*time.Second
	for !done && s.Sim.Now() < deadline {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if !done {
		t.Fatal("composition did not complete")
	}
	// The victim: the host carrying substream 0's largest rate share. It
	// must not host any substream-1 placement, or the comparison would not
	// isolate the teardown of the healthy substream.
	byID := map[overlay.ID]int{}
	for i, n := range s.Nodes {
		byID[n.ID()] = i
	}
	victim, victimRate := -1, 0.0
	for _, p := range graph.Placements {
		if p.Substream == 0 && byID[p.Host.ID] != origin && p.Rate > victimRate {
			victim, victimRate = byID[p.Host.ID], p.Rate
		}
	}
	if victim < 0 {
		t.Fatal("no remote placement to kill")
	}
	for _, p := range graph.Placements {
		if p.Substream == 1 && byID[p.Host.ID] == victim {
			t.Fatalf("substreams share host %d; pick another seed", victim)
		}
	}
	// read returns per-substream delivered-unit counts, surviving the sink
	// replacement a full recompose performs.
	read := func(l int) int64 {
		if sk := s.Engines[origin].Sink(req.ID, l); sk != nil {
			return sk.Received
		}
		return 0
	}
	// Warm up, then measure the healthy per-window rate.
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	const window = 250 * time.Millisecond
	pre0, pre1 := read(0), read(1)
	s.Sim.RunUntil(s.Sim.Now() + 4*time.Second)
	windows := 4 * float64(time.Second) / float64(window)
	perWindow := float64(read(0)-pre0+read(1)-pre1) / windows
	if perWindow <= 0 {
		t.Fatal("no delivery before the kill")
	}
	threshold := 0.3 * perWindow

	s.Kill(victim)
	killedAt := s.Sim.Now()
	prev := [2]int64{read(0), read(1)}
	var below time.Duration
	horizon := killedAt + 40*time.Second
	for s.Sim.Now() < horizon {
		s.Sim.RunUntil(s.Sim.Now() + window)
		var delta int64
		for l := 0; l < 2; l++ {
			cur := read(l)
			d := cur - prev[l]
			if d < 0 {
				d = cur // the sink was replaced; count from its birth
			}
			prev[l] = cur
			delta += d
		}
		if float64(delta) < threshold {
			below += window
		}
	}
	// Both modes must have fully recovered by the end of the horizon.
	r0, r1 := read(0), read(1)
	s.Sim.RunUntil(s.Sim.Now() + 4*time.Second)
	postWindow := float64(read(0)-r0+read(1)-r1) / windows
	if postWindow < 0.7*perWindow {
		t.Fatalf("delivery never recovered: %.2f units/window post-failover, %.2f healthy",
			postWindow, perWindow)
	}
	if fullOnly && s.Engines[origin].Reallocations() != 0 {
		t.Fatal("full-only mode took the incremental path")
	}
	if !fullOnly {
		if s.Engines[origin].Reallocations() == 0 {
			t.Fatal("incremental mode recovered without a reallocation")
		}
	}
	return below
}

// TestIncrementalReallocationShortensFailoverDip is the acceptance check
// for the adaptation control plane: under an identical seed and failure,
// the delivered-rate dip with incremental reallocation must be strictly
// shorter than with teardown-and-recompose. Incremental reallocation
// re-solves only the killed host's substream and leaves the healthy one
// streaming, so total delivery never collapses; the full recompose tears
// both substreams down and rebuilds them, silencing the application
// entirely while it does.
func TestIncrementalReallocationShortensFailoverDip(t *testing.T) {
	incremental := failoverDipDuration(t, false)
	full := failoverDipDuration(t, true)
	if full == 0 {
		t.Fatal("full recompose produced no deep dip; the comparison is vacuous")
	}
	if incremental >= full {
		t.Fatalf("incremental dip %v, full-recompose dip %v; want incremental strictly shorter",
			incremental, full)
	}
	t.Logf("deep-dip time after kill: incremental=%v full-recompose=%v", incremental, full)
}

// TestGossipFailoverBeatsDegradationDetection is the acceptance check for
// the membership subsystem: a node failure detected by the gossip failure
// detector must trigger recomposition of the affected application
// strictly earlier (in virtual time) than the periodic delivery-rate
// degradation check alone.
func TestGossipFailoverBeatsDegradationDetection(t *testing.T) {
	gossipDelay := failoverRecompositionDelay(t, true)
	degradationDelay := failoverRecompositionDelay(t, false)
	if gossipDelay >= degradationDelay {
		t.Fatalf("gossip recomposed after %v, degradation detection after %v; want gossip strictly earlier",
			gossipDelay, degradationDelay)
	}
	t.Logf("recomposition delay after kill: gossip=%v degradation-only=%v", gossipDelay, degradationDelay)
}
