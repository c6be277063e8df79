package overlay

import (
	"fmt"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/transport"
)

// proximityCluster builds a two-site topology (near nodes at 2ms, far
// nodes at 100ms from node 0) and joins everyone with proximity-aware
// routing enabled or disabled.
func proximityCluster(t *testing.T, n int, aware bool, seed int64) ([]*Node, *netsim.Simulator) {
	t.Helper()
	sim := netsim.New(seed)
	lat := func(a, b netsim.NodeID) time.Duration {
		if a == b {
			return 0
		}
		// Even nodes form one site, odd nodes the other.
		if (int(a)%2 == 0) == (int(b)%2 == 0) {
			return 2 * time.Millisecond
		}
		return 100 * time.Millisecond
	}
	nw := netsim.NewNetwork(sim, netsim.Config{Latency: lat})
	mem := transport.NewMemNetwork(nw)
	clk := clock.Sim{S: sim}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		id := HashID(fmt.Sprintf("prox-%d-%d", seed, i))
		nodes[i] = NewNode(id, mem.Endpoint(nw.AddNode(1e8, 1e8)), clk)
		nodes[i].ProximityAware = aware
	}
	nodes[0].Bootstrap()
	for i := 1; i < n; i++ {
		nodes[i].Join(nodes[0].Addr(), nil)
		sim.Run()
	}
	for _, nd := range nodes {
		nd.Stabilize()
	}
	sim.Run()
	return nodes, sim
}

// meanTableRTT averages the true latency of every routing-table entry as
// seen from its owner.
func meanTableRTT(nodes []*Node) float64 {
	idx := make(map[ID]int, len(nodes))
	for i, nd := range nodes {
		idx[nd.ID()] = i
	}
	var total float64
	var count int
	for i, nd := range nodes {
		for _, e := range nd.rt.all() {
			j := idx[e.ID]
			if (i%2 == 0) == (j%2 == 0) {
				total += 2
			} else {
				total += 100
			}
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func TestProximitySelectionPrefersNearPeers(t *testing.T) {
	blind, _ := proximityCluster(t, 24, false, 3)
	aware, _ := proximityCluster(t, 24, true, 3)
	b, a := meanTableRTT(blind), meanTableRTT(aware)
	if a >= b {
		t.Fatalf("proximity-aware mean table latency %.1fms not below blind %.1fms", a, b)
	}
}

func TestProximityRoutingStillConverges(t *testing.T) {
	nodes, sim := proximityCluster(t, 20, true, 7)
	root := func(key ID) *Node {
		best := nodes[0]
		for _, nd := range nodes[1:] {
			if Closer(key, nd.ID(), best.ID()) {
				best = nd
			}
		}
		return best
	}
	for trial := 0; trial < 30; trial++ {
		key := HashID(fmt.Sprintf("prox-key-%d", trial))
		var deliveredAt *Node
		for _, nd := range nodes {
			nd := nd
			nd.Register("p", func(ID, NodeInfo, []byte) { deliveredAt = nd })
		}
		nodes[trial%len(nodes)].Route(key, "p", nil)
		sim.Run()
		if deliveredAt != root(key) {
			t.Fatalf("proximity routing misdelivered key %v", key)
		}
	}
}

func TestProbeRTTCachesAndMeasures(t *testing.T) {
	nodes, sim := proximityCluster(t, 6, true, 11)
	// After joining with proximity on, contested slots have measurements.
	measured := 0
	for _, nd := range nodes {
		for _, other := range nodes {
			if rtt, ok := nd.RTTOf(other.ID()); ok {
				measured++
				if rtt <= 0 {
					t.Fatalf("non-positive RTT %v", rtt)
				}
			}
		}
	}
	_ = sim
	// Probing only happens for contested slots; with 6 nodes there may
	// be few, but RTTOf must never fabricate entries.
	if _, ok := nodes[0].RTTOf(HashID("stranger")); ok {
		t.Fatal("RTTOf returned a measurement for an unknown peer")
	}
}

// learn is not idempotent: a contested slot whose probes finished in the
// wrong order is only settled by a later learn of the candidate. Incumbent
// Y holds the slot; candidates X1 and X2 contest it. X2's probe lands
// before Y's, so its settle finds no RTT for Y and gives up, and the slot
// keeps Y although X2 is closer. Learning X2 again must install it.
func TestLearnSettlesContestAfterOutOfOrderProbes(t *testing.T) {
	sim := netsim.New(1)
	// One-way latencies from the owner (node 0): Y 50 ms, X1 100 ms, X2 5 ms.
	oneWay := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 5 * time.Millisecond}
	nw := netsim.NewNetwork(sim, netsim.Config{Latency: func(a, b netsim.NodeID) time.Duration {
		return oneWay[a] + oneWay[b]
	}})
	mem := transport.NewMemNetwork(nw)
	clk := clock.Sim{S: sim}
	// Y, X1 and X2 differ from the owner in their first digit and share
	// it, so they compete for the owner's slot (row 0, digit 8).
	ids := []ID{{0x00, 1}, {0x80, 1}, {0x80, 2}, {0x80, 3}}
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = NewNode(id, mem.Endpoint(nw.AddNode(1e8, 1e8)), clk)
	}
	owner, y, x1, x2 := nodes[0], nodes[1], nodes[2], nodes[3]
	owner.ProximityAware = true
	slot := func() ID { return owner.rt.lookup(owner.rt.slotFor(y.ID())).ID }

	owner.AddPeer(y.Info())  // an empty slot: Y takes it unprobed
	owner.AddPeer(x1.Info()) // probes Y and X1
	owner.AddPeer(x2.Info()) // Y's probe is in flight: probes X2 only
	sim.Run()
	for _, p := range []*Node{y, x1, x2} {
		if _, ok := owner.RTTOf(p.ID()); !ok {
			t.Fatalf("no RTT for %s after the probes", p.ID())
		}
	}
	if slot() != y.ID() {
		t.Fatalf("slot holds %s after the probes; want the incumbent Y (X2's settle ran before Y's RTT was known)", slot())
	}
	owner.AddPeer(x2.Info())
	if slot() != x2.ID() {
		t.Fatalf("slot holds %s after learning X2 again; want X2, the closest", slot())
	}
}
