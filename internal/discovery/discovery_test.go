package discovery

import (
	"fmt"
	"testing"
	"time"

	"rasc.dev/rasc/internal/dht"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/simnet"
)

func newDirCluster(t *testing.T, n int, seed int64) (*simnet.Cluster, []*Directory) {
	t.Helper()
	c := simnet.New(simnet.Options{N: n, Seed: seed})
	dirs := make([]*Directory, n)
	for i, node := range c.Nodes {
		dirs[i] = New(node, dht.New(node, c.Clock), c.Clock)
	}
	return c, dirs
}

func TestAnnounceLookup(t *testing.T) {
	c, dirs := newDirCluster(t, 16, 1)
	dirs[3].Announce("transcode")
	dirs[7].Announce("transcode")
	dirs[9].Announce("filter")
	c.Sim.Run()
	var hosts []overlay.NodeInfo
	dirs[0].Lookup("transcode", time.Second, func(h []overlay.NodeInfo, err error) {
		if err != nil {
			t.Error(err)
		}
		hosts = h
	})
	c.Sim.Run()
	if len(hosts) != 2 {
		t.Fatalf("got %d hosts, want 2", len(hosts))
	}
	want := map[overlay.ID]bool{c.Nodes[3].ID(): true, c.Nodes[7].ID(): true}
	for _, h := range hosts {
		if !want[h.ID] {
			t.Fatalf("unexpected host %v", h.ID)
		}
	}
}

func TestLookupUnknownServiceEmpty(t *testing.T) {
	c, dirs := newDirCluster(t, 8, 2)
	ran := false
	dirs[0].Lookup("nope", time.Second, func(h []overlay.NodeInfo, err error) {
		ran = true
		if err != nil || len(h) != 0 {
			t.Errorf("h=%v err=%v", h, err)
		}
	})
	c.Sim.Run()
	if !ran {
		t.Fatal("callback never ran")
	}
}

func TestWithdraw(t *testing.T) {
	c, dirs := newDirCluster(t, 8, 3)
	dirs[1].Announce("agg")
	dirs[2].Announce("agg")
	c.Sim.Run()
	dirs[1].Withdraw("agg")
	c.Sim.Run()
	var hosts []overlay.NodeInfo
	dirs[4].Lookup("agg", time.Second, func(h []overlay.NodeInfo, err error) { hosts = h })
	c.Sim.Run()
	if len(hosts) != 1 || hosts[0].ID != c.Nodes[2].ID() {
		t.Fatalf("hosts = %v", hosts)
	}
	if dirs[1].Offers("agg") {
		t.Fatal("Offers still true after Withdraw")
	}
}

func TestLookupResultsSorted(t *testing.T) {
	c, dirs := newDirCluster(t, 16, 4)
	for i := 0; i < 8; i++ {
		dirs[i].Announce("svc")
	}
	c.Sim.Run()
	var hosts []overlay.NodeInfo
	dirs[15].Lookup("svc", time.Second, func(h []overlay.NodeInfo, err error) { hosts = h })
	c.Sim.Run()
	if len(hosts) != 8 {
		t.Fatalf("got %d hosts", len(hosts))
	}
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1].ID.Cmp(hosts[i].ID) >= 0 {
			t.Fatal("hosts not sorted by ID")
		}
	}
}

// TestLookupNamesEachHostOnce: a host that re-announced under a new
// address leaves two records with one ID in the DHT; the lookup result
// still names it once, so composers can order candidates by ID alone.
func TestLookupNamesEachHostOnce(t *testing.T) {
	c, dirs := newDirCluster(t, 8, 5)
	dirs[2].Announce("svc")
	dirs[5].Announce("svc")
	stale := c.Nodes[2].Info()
	stale.Addr = "sim://stale"
	rec, err := appendHostRecord(nil, stale, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := dirs[2].store.Put(ServiceKey("svc"), rec); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run()
	var hosts []overlay.NodeInfo
	dirs[7].Lookup("svc", time.Second, func(h []overlay.NodeInfo, err error) { hosts = h })
	c.Sim.Run()
	if len(hosts) != 2 || hosts[0].ID.Cmp(hosts[1].ID) >= 0 {
		t.Fatalf("lookup = %v, want hosts 2 and 5 once each, sorted by ID", hosts)
	}
	for _, h := range hosts {
		if h.ID == stale.ID && h.Addr != c.Nodes[2].Info().Addr {
			t.Fatalf("kept %s for host 2, want the lower address %s", h.Addr, c.Nodes[2].Info().Addr)
		}
	}
}

func TestLookupMany(t *testing.T) {
	c, dirs := newDirCluster(t, 16, 5)
	services := []string{"s0", "s1", "s2"}
	for i, svc := range services {
		for j := 0; j <= i; j++ {
			dirs[j].Announce(svc)
		}
	}
	c.Sim.Run()
	var got map[string][]overlay.NodeInfo
	dirs[10].LookupMany(append(services, "missing"), time.Second, func(m map[string][]overlay.NodeInfo, err error) {
		if err != nil {
			t.Error(err)
		}
		got = m
	})
	c.Sim.Run()
	if got == nil {
		t.Fatal("callback never ran")
	}
	for i, svc := range services {
		if len(got[svc]) != i+1 {
			t.Fatalf("%s has %d hosts, want %d", svc, len(got[svc]), i+1)
		}
	}
	if len(got["missing"]) != 0 {
		t.Fatal("missing service has hosts")
	}
}

func TestLookupManyEmptyList(t *testing.T) {
	_, dirs := newDirCluster(t, 4, 6)
	ran := false
	dirs[0].LookupMany(nil, time.Second, func(m map[string][]overlay.NodeInfo, err error) {
		ran = true
		if err != nil || len(m) != 0 {
			t.Errorf("m=%v err=%v", m, err)
		}
	})
	if !ran {
		t.Fatal("callback must run synchronously for empty input")
	}
}

func TestLocalServices(t *testing.T) {
	_, dirs := newDirCluster(t, 4, 7)
	dirs[0].Announce("zeta")
	dirs[0].Announce("alpha")
	got := dirs[0].LocalServices()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("LocalServices = %v", got)
	}
}

func TestReplicationDegreeSixteen(t *testing.T) {
	// Mirrors the paper's setup: 10 services, 5 per node on 32 nodes
	// yields an average replication degree of 16.
	c, dirs := newDirCluster(t, 32, 8)
	services := make([]string, 10)
	for i := range services {
		services[i] = fmt.Sprintf("svc-%d", i)
	}
	for i, d := range dirs {
		for k := 0; k < 5; k++ {
			d.Announce(services[(i*5+k)%10])
		}
	}
	c.Sim.Run()
	total := 0
	for _, svc := range services {
		var hosts []overlay.NodeInfo
		dirs[0].Lookup(svc, time.Second, func(h []overlay.NodeInfo, err error) { hosts = h })
		c.Sim.Run()
		total += len(hosts)
	}
	if avg := float64(total) / 10; avg != 16 {
		t.Fatalf("average replication degree = %.1f, want 16", avg)
	}
}
