package deploy

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/tenant"
)

// submitOK submits req at engine origin and runs the simulator until the
// composition completes.
func submitOK(t *testing.T, s *System, origin int, req spec.Request) *core.ExecutionGraph {
	t.Helper()
	var graph *core.ExecutionGraph
	var serr error
	done := false
	s.Engines[origin].Submit(req, &core.MinCost{}, 10*time.Second, func(g *core.ExecutionGraph, err error) {
		graph, serr, done = g, err, true
	})
	deadline := s.Sim.Now() + 120*time.Second
	for !done && s.Sim.Now() < deadline {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if !done {
		t.Fatal("composition did not complete")
	}
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	return graph
}

// TestFederatedSingleClusterEquivalence is the refactor's pin: a
// federated deployment with one cluster must compose bit-identically to
// the flat (unfederated) composer — same seed, same topology, same
// request, byte-equal execution graphs.
func TestFederatedSingleClusterEquivalence(t *testing.T) {
	gcfg := gossip.Config{ProbeTimeout: 500 * time.Millisecond}
	req := spec.Request{
		ID:        "equiv",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{"filter", "encrypt"}, Rate: 8},
			{Services: []string{"transcode"}, Rate: 4},
		},
	}
	flat := NewSystem(SystemOptions{Nodes: 16, Seed: 11, EnableGossip: true, Gossip: gcfg})
	fed := NewSystem(SystemOptions{
		Nodes: 16, Seed: 11, EnableGossip: true, Gossip: gcfg,
		Federation: &FederationOptions{Clusters: 1},
	})
	gFlat := submitOK(t, flat, 0, req)
	gFed := submitOK(t, fed, 0, req)
	if gFed.Composer != gFlat.Composer {
		t.Fatalf("composer diverged: flat %q, federated %q", gFlat.Composer, gFed.Composer)
	}
	bFlat, _ := json.Marshal(gFlat)
	bFed, _ := json.Marshal(gFed)
	// The only allowed difference is the cluster tag every federated
	// NodeInfo carries; both sides run through the same normalization.
	if stripCluster(t, bFlat) != stripCluster(t, bFed) {
		t.Fatalf("single-cluster federated graph diverged from flat composer:\nflat: %s\nfed:  %s", bFlat, bFed)
	}
}

// stripCluster removes the "cluster" tags a federated deployment's node
// infos carry, leaving the placement/edge/rate structure for comparison.
func stripCluster(t *testing.T, b []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(any)
	walk = func(x any) {
		switch m := x.(type) {
		case map[string]any:
			delete(m, "cluster")
			for _, vv := range m {
				walk(vv)
			}
		case []any:
			for _, vv := range m {
				walk(vv)
			}
		}
	}
	walk(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// newHandoffSystem builds a two-cluster deployment where cluster c0 (the
// origin's) announces only "filter" and cluster c1 only "encrypt", so an
// encrypt request from c0 can complete only through a cross-boundary
// hand-off.
func newHandoffSystem(t *testing.T, tenancy *tenant.Config) *System {
	t.Helper()
	s := NewSystem(SystemOptions{
		Nodes:           12,
		Seed:            21,
		ServicesPerNode: 1,
		Gossip:          gossip.Config{ProbeTimeout: 500 * time.Millisecond},
		Tenancy:         tenancy,
		Federation: &FederationOptions{
			Clusters:        2,
			BoundaryBps:     1e8,
			ClusterServices: [][]string{{"filter"}, {"encrypt"}},
		},
	})
	// Let the border summary exchange and digest dissemination converge
	// before composing: discovery needs a fresh remote catalog.
	s.Sim.RunUntil(s.Sim.Now() + 30*time.Second)
	return s
}

// TestFederatedCrossClusterHandoff drives a full hand-off: composition
// fails inside the origin cluster, the coordinator discovers the remote
// cluster through border summaries, hands the substream off, and the
// stitched graph's placements run in the remote cluster with boundary
// capacity reserved on both ledgers. Teardown refunds every credit.
func TestFederatedCrossClusterHandoff(t *testing.T) {
	s := newHandoffSystem(t, nil)
	req := spec.Request{
		ID:         "handoff",
		UnitBytes:  1250,
		Substreams: []spec.Substream{{Services: []string{"encrypt"}, Rate: 5}},
	}
	g := submitOK(t, s, 0, req) // node 0 is in cluster c0
	if g.Composer != "federated+mincost" {
		t.Fatalf("composer = %q, want federated+mincost", g.Composer)
	}
	for _, p := range g.Placements {
		if p.Host.Cluster != "c1" {
			t.Fatalf("placement on %s (cluster %q), want cluster c1", p.Host.ID, p.Host.Cluster)
		}
	}
	refs := s.Federation[0].Handoffs()
	if len(refs) != 1 || refs[0].RemoteCluster != "c1" {
		t.Fatalf("handoffs = %+v, want one to c1", refs)
	}
	for k, name := range []string{"origin", "remote"} {
		usage := s.Ledgers[k].Usage()
		if len(usage) != 1 || usage[0].Credits != 1 || usage[0].ReservedBps <= 0 {
			t.Fatalf("%s ledger usage = %+v, want one live credit", name, usage)
		}
		if usage[0].ReservedBps > usage[0].CapacityBps {
			t.Fatalf("%s ledger oversubscribed: %+v", name, usage)
		}
	}
	// The stream must actually deliver across the boundary.
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	sink := s.Engines[0].Sink(req.ID, 0)
	if sink == nil || sink.Received == 0 {
		t.Fatal("no units delivered across the boundary")
	}
	s.Engines[0].Teardown(g, 5*time.Second)
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	for k, name := range []string{"origin", "remote"} {
		usage := s.Ledgers[k].Usage()
		if len(usage) != 1 || usage[0].Credits != 0 || usage[0].ReservedBps != 0 {
			t.Fatalf("%s ledger not refunded after teardown: %+v", name, usage)
		}
	}
}

// TestFederatedRemoteDeathKeepsLocalLedger pins the gate's one death
// path: a member's death shrinks its own cluster's gate by exactly that
// member's proportional share of the cluster's access capacity, once,
// although every detector reports the death; the other cluster's gate is
// bit-unchanged.
func TestFederatedRemoteDeathKeepsLocalLedger(t *testing.T) {
	s := newHandoffSystem(t, &tenant.Config{})
	if len(s.Gates) != 2 {
		t.Fatalf("gates = %d, want one per cluster", len(s.Gates))
	}
	// Kill a non-border node of cluster c1 (node 3 = 1 mod 2).
	const victim = 3
	share := func(i int) float64 { return math.Min(s.Topology.DownBps[i], s.Topology.UpBps[i]) }
	var clusterShare float64
	for i := range s.Nodes {
		if s.ClusterOf[i] == s.ClusterOf[victim] {
			clusterShare += share(i)
		}
	}
	localBefore := s.Gates[0].CapacityBps()
	remoteBefore := s.Gates[1].CapacityBps()
	want := remoteBefore - remoteBefore*share(victim)/clusterShare

	dead := s.Nodes[victim].Info().ID
	reports := 0
	for _, g := range s.Gossip {
		g.OnMemberDead(func(info overlay.NodeInfo) {
			if info.ID == dead {
				reports++
			}
		})
	}
	s.Kill(victim)
	s.Sim.RunUntil(s.Sim.Now() + 60*time.Second)
	if reports < 2 {
		t.Fatalf("%d detectors reported the death, want several", reports)
	}
	if got := s.Gates[0].CapacityBps(); got != localBefore {
		t.Fatalf("local cluster budget moved on a remote death: %v -> %v", localBefore, got)
	}
	if got := s.Gates[1].CapacityBps(); got != want {
		t.Fatalf("remote cluster budget %v -> %v, want %v (the dead node's share, once)", remoteBefore, got, want)
	}
}
