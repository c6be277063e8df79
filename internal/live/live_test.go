package live

import (
	"fmt"
	"testing"
	"time"

	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// startCluster boots n live nodes on loopback TCP, the first as bootstrap.
// Services are announced only after the whole ring has formed, so the
// registrations land at their final roots.
func startCluster(t *testing.T, n int, servicesPerNode [][]string) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	var bootstrap string
	for i := 0; i < n; i++ {
		node, err := Start(Config{
			Listen:    "127.0.0.1:0",
			Name:      fmt.Sprintf("live-test-%d", i),
			Bootstrap: bootstrap,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
		if i == 0 {
			bootstrap = node.Addr()
		}
	}
	// Let the ring converge before registering services.
	for _, node := range nodes {
		node.DoSync(func() { node.Overlay.Stabilize() })
	}
	time.Sleep(200 * time.Millisecond)
	for i, node := range nodes {
		if servicesPerNode == nil || servicesPerNode[i] == nil {
			continue
		}
		svcs := servicesPerNode[i]
		node.DoSync(func() {
			for _, svc := range svcs {
				node.Dir.Announce(svc)
			}
		})
	}
	return nodes
}

func TestLiveJoin(t *testing.T) {
	nodes := startCluster(t, 4, nil)
	for i, n := range nodes {
		joined := false
		n.DoSync(func() { joined = n.Overlay.Joined() })
		if !joined {
			t.Fatalf("node %d not joined", i)
		}
	}
	// Everyone should know at least one peer.
	for i, n := range nodes {
		known := 0
		n.DoSync(func() { known = n.Overlay.NumKnown() })
		if known == 0 {
			t.Fatalf("node %d knows no peers", i)
		}
	}
}

func TestLiveDiscovery(t *testing.T) {
	nodes := startCluster(t, 4, [][]string{
		nil,
		{"filter"},
		{"filter", "encrypt"},
		{"encrypt"},
	})
	// Allow announcements to propagate.
	time.Sleep(300 * time.Millisecond)
	found := make(chan int, 1)
	nodes[0].Do(func() {
		nodes[0].Dir.Lookup("filter", 5*time.Second, func(hosts []overlay.NodeInfo, err error) {
			if err != nil {
				t.Errorf("lookup: %v", err)
			}
			found <- len(hosts)
		})
	})
	select {
	case n := <-found:
		if n != 2 {
			t.Fatalf("found %d filter hosts, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup never completed")
	}
}

func TestLiveUDPDataPath(t *testing.T) {
	// Same scenario as TestLiveSubmitAndStream but with stream data on
	// UDP: control must still work, and most data units must arrive.
	var nodes []*Node
	var bootstrap string
	plan := [][]string{nil, {"filter"}, {"filter", "encrypt"}, {"encrypt"}}
	for i, svcs := range plan {
		node, err := Start(Config{
			Listen:    "127.0.0.1:0",
			Name:      fmt.Sprintf("udp-test-%d", i),
			Bootstrap: bootstrap,
			UDPData:   true,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Close)
		nodes = append(nodes, node)
		if i == 0 {
			bootstrap = node.Addr()
		}
		_ = svcs
	}
	for _, node := range nodes {
		node.DoSync(func() { node.Overlay.Stabilize() })
	}
	time.Sleep(200 * time.Millisecond)
	for i, svcs := range plan {
		node := nodes[i]
		list := svcs
		node.DoSync(func() {
			for _, svc := range list {
				node.Dir.Announce(svc)
			}
		})
	}
	time.Sleep(300 * time.Millisecond)
	req := spec.Request{
		ID:        "udp-req",
		UnitBytes: 800,
		Substreams: []spec.Substream{
			{Services: []string{"filter", "encrypt"}, Rate: 25},
		},
	}
	if _, err := nodes[0].Submit(req, "mincost", 10*time.Second); err != nil {
		t.Fatalf("submit: %v", err)
	}
	time.Sleep(1500 * time.Millisecond)
	s := nodes[0].Stats("udp-req", 0)
	if s.Emitted < 10 {
		t.Fatalf("emitted only %d", s.Emitted)
	}
	if s.Received < s.Emitted/2 {
		t.Fatalf("UDP path delivered %d of %d", s.Received, s.Emitted)
	}
}

func TestLiveSubmitAndStream(t *testing.T) {
	nodes := startCluster(t, 5, [][]string{
		nil,
		{"filter"},
		{"filter", "encrypt"},
		{"encrypt"},
		{"filter", "encrypt"},
	})
	time.Sleep(300 * time.Millisecond)
	req := spec.Request{
		ID:        "live-req",
		UnitBytes: 500,
		Substreams: []spec.Substream{
			{Services: []string{"filter", "encrypt"}, Rate: 20},
		},
	}
	graph, err := nodes[0].Submit(req, "mincost", 10*time.Second)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(graph.Placements) != 2 {
		t.Fatalf("placements = %d, want 2", len(graph.Placements))
	}
	// Stream for a bit of real time, then check delivery.
	time.Sleep(1500 * time.Millisecond)
	s := nodes[0].Stats("live-req", 0)
	if s.Emitted < 10 {
		t.Fatalf("source emitted only %d units", s.Emitted)
	}
	if s.Received < s.Emitted/2 {
		t.Fatalf("delivered %d of %d units", s.Received, s.Emitted)
	}
	if s.MeanDelay <= 0 {
		t.Fatal("mean delay must be positive")
	}
}

// TestLiveMemberDeadPrunesOverlay runs the member-dead hook the simulator
// shares over real TCP: three nodes on short gossip periods, one closed;
// both survivors must declare it dead and drop it from their leaf sets.
func TestLiveMemberDeadPrunesOverlay(t *testing.T) {
	var nodes []*Node
	var bootstrap string
	for i := 0; i < 3; i++ {
		n, err := Start(Config{
			Listen:    "127.0.0.1:0",
			Name:      fmt.Sprintf("dead-test-%d", i),
			Bootstrap: bootstrap,
			Gossip: gossip.Config{
				ProbeInterval:    100 * time.Millisecond,
				ProbeTimeout:     50 * time.Millisecond,
				SuspicionTimeout: 300 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(n.Close)
		nodes = append(nodes, n)
		bootstrap = nodes[0].Addr()
	}
	victim := nodes[2].Overlay.ID()
	// state reports the victim as node i's gossip view holds it (known is
	// false while unheard of) and whether node i's leaf set lists it.
	state := func(i int) (m gossip.Member, known, inLeaf bool) {
		nodes[i].DoSync(func() {
			m, known = nodes[i].Gossip.Member(victim)
			for _, p := range nodes[i].Overlay.Leafset() {
				inLeaf = inLeaf || p.ID == victim
			}
		})
		return m, known, inLeaf
	}
	waitFor := func(what string, want gossip.State, wantInLeaf bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			done := true
			for i := 0; i < 2; i++ {
				m, known, inLeaf := state(i)
				done = done && known && m.State == want && inLeaf == wantInLeaf
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				for i := 0; i < 2; i++ {
					m, known, inLeaf := state(i)
					t.Errorf("node %d: victim known %v, state %v, in leaf set %v", i, known, m.State, inLeaf)
				}
				t.Fatalf("survivors never %s", what)
			}
		}
	}
	waitFor("saw the victim alive", gossip.StateAlive, true)
	nodes[2].Close()
	waitFor("declared the victim dead and pruned it", gossip.StateDead, false)
}
