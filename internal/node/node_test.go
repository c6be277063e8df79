package node

import (
	"math/rand"
	"testing"
	"time"

	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/simnet"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
)

// assembleAll builds a three-node simulated cluster "c0" with every part
// of the stack switched on; dead collects the caller hook's reports, and
// the hook checks that the member is already out of its node's leaf set.
func assembleAll(t *testing.T) (*simnet.Cluster, []*Node, *[]overlay.ID) {
	t.Helper()
	c := simnet.New(simnet.Options{N: 3, Seed: 4, ConfigureNode: func(_ int, ov *overlay.Node) { ov.SetCluster("c0") }})
	journal, ledger := trace.NewJournal(16), federation.NewLedger()
	gate := tenant.NewGate(tenant.Config{CapacityBps: 1e6, Clock: c.Clock, Journal: journal})
	var dead []overlay.ID
	var nodes []*Node
	for i, ov := range c.Nodes {
		nodes = append(nodes, Assemble(ov, c.Clock, Config{
			Catalog:    services.Standard(),
			Rand:       rand.New(rand.NewSource(int64(i))),
			Journal:    journal,
			Gate:       gate,
			Gossip:     &gossip.Config{ProbeTimeout: 500 * time.Millisecond},
			GossipRand: rand.New(rand.NewSource(int64(10 + i))),
			OnMemberDead: func(info overlay.NodeInfo) {
				for _, p := range ov.Leafset() {
					if p.ID == info.ID {
						t.Errorf("node %d ran the hook before pruning the dead member", i)
					}
				}
				dead = append(dead, info.ID)
			},
			Cluster:   "c0",
			Ledger:    ledger,
			Summaries: func() []gossip.ClusterSummary { return nil },
		}))
	}
	for _, n := range nodes {
		if n.Engine.TenantGate() != gate || n.Engine.DecisionJournal() != journal || n.Engine.Federation() != n.Federation {
			t.Fatal("engine not wired to the gate, journal and coordinator it was assembled with")
		}
	}
	return c, nodes, &dead
}

// Assemble must send nothing and schedule no timer: the simulator assembles
// its nodes before the set-up traffic runs, and its seeded outcomes rest on
// the event queue holding only that traffic. Start schedules the loops.
func TestAssembleIsInertUntilStart(t *testing.T) {
	c, nodes, _ := assembleAll(t)
	if p := c.Sim.Pending(); p != 0 {
		t.Fatalf("Assemble left %d events queued, want none", p)
	}
	Start(nil, &stream.AdaptationConfig{Interval: time.Second}, nodes...)
	if c.Sim.Pending() == 0 {
		t.Fatal("Start scheduled no protocol loop")
	}
}

// A member the detectors declare dead is pruned from each survivor's
// overlay before the caller's hook runs once per survivor.
func TestMemberDeadPrunesThenCallsHook(t *testing.T) {
	c, nodes, dead := assembleAll(t)
	var roster []overlay.NodeInfo
	for _, ov := range c.Nodes {
		roster = append(roster, ov.Info())
	}
	Start(roster, &stream.AdaptationConfig{Interval: time.Second}, nodes...)
	victim := c.Nodes[2].ID()
	nodes[2].Gossip.Stop()
	_ = c.Endpoints[2].Close()
	c.Sim.RunUntil(c.Sim.Now() + 30*time.Second)
	if len(*dead) != 2 || (*dead)[0] != victim || (*dead)[1] != victim {
		t.Fatalf("hook reports %v, want the victim once per survivor", *dead)
	}
	for i, n := range nodes[:2] {
		for _, p := range n.Overlay.Leafset() {
			if p.ID == victim {
				t.Fatalf("survivor %d still lists the dead member in its leaf set", i)
			}
		}
	}
}
