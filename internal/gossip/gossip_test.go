package gossip

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/simnet"
)

// testConfig sets protocol timers sized for the simulated PlanetLab
// topology: inter-site RTTs reach ~330ms, so the direct-probe timeout must
// exceed that or every probe falls through to the indirect path. Virtual
// time is free, so the intervals can stay realistic. DeadRetention is
// effectively infinite so partition-heal tests don't race tombstone
// expiry.
func testConfig() Config {
	return Config{
		ProbeInterval:    time.Second,
		ProbeTimeout:     500 * time.Millisecond,
		IndirectProbes:   2,
		SuspicionTimeout: 3 * time.Second,
		SyncInterval:     5 * time.Second,
		DeadRetention:    30 * time.Minute,
	}
}

// gossipCluster is a simnet overlay with one gossip instance per node.
type gossipCluster struct {
	c  *simnet.Cluster
	gs []*Gossip
}

// newGossipCluster builds n nodes; every node i announces service
// "svc-<i%4>" in its digest. When bootstrap is true, membership spreads
// from node 0 only (Join); otherwise every node is pre-seeded with the
// full roster.
func newGossipCluster(n int, seed int64, cfg Config, bootstrap bool) *gossipCluster {
	c := simnet.New(simnet.Options{N: n, Seed: seed})
	tc := &gossipCluster{c: c}
	for i, node := range c.Nodes {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		g := New(node, c.Clock, rng, cfg)
		idx := i
		g.SetDigestFunc(func() Digest {
			return Digest{
				Report:   monitor.Report{InBpsCap: float64(1000 + idx), OutBpsCap: float64(2000 + idx)},
				Services: []string{fmt.Sprintf("svc-%d", idx%4)},
			}
		})
		tc.gs = append(tc.gs, g)
	}
	if bootstrap {
		for i := 1; i < n; i++ {
			tc.gs[i].Join(c.Nodes[0].Info())
		}
	} else {
		var infos []overlay.NodeInfo
		for _, node := range c.Nodes {
			infos = append(infos, node.Info())
		}
		for _, g := range tc.gs {
			g.Seed(infos)
		}
	}
	for _, g := range tc.gs {
		g.Start()
	}
	return tc
}

// step advances virtual time by d. Gossip loops reschedule forever, so
// tests must advance with RunUntil, never Run.
func (tc *gossipCluster) step(d time.Duration) {
	tc.c.Sim.RunUntil(tc.c.Sim.Now() + d)
}

// viewMatches reports whether g's view holds the expected state for every
// node index in want. A missing entry satisfies an expected death: dead
// entries are deliberately forgotten after DeadRetention.
func viewMatches(tc *gossipCluster, g *Gossip, want map[int]State) bool {
	for i, st := range want {
		m, ok := g.Member(tc.c.Nodes[i].ID())
		if !ok {
			if st == StateDead {
				continue
			}
			return false
		}
		if m.State != st {
			return false
		}
	}
	return true
}

// runUntilConverged steps one probe interval at a time until every gossip
// in check agrees with want, failing the test after maxRounds.
func runUntilConverged(t *testing.T, tc *gossipCluster, check []int, want map[int]State, maxRounds int) int {
	t.Helper()
	cfg := tc.gs[0].Config()
	for r := 1; r <= maxRounds; r++ {
		tc.step(cfg.ProbeInterval)
		done := true
		for _, i := range check {
			if !viewMatches(tc, tc.gs[i], want) {
				done = false
				break
			}
		}
		if done {
			return r
		}
	}
	for _, i := range check {
		if !viewMatches(tc, tc.gs[i], want) {
			t.Errorf("node %d view did not converge: %+v", i, tc.gs[i].Summary())
		}
	}
	t.Fatalf("views not converged after %d rounds", maxRounds)
	return maxRounds
}

func TestBootstrapConvergence(t *testing.T) {
	const n = 16
	tc := newGossipCluster(n, 7, testConfig(), true)
	want := map[int]State{}
	all := make([]int, n)
	for i := range all {
		all[i] = i
		want[i] = StateAlive
	}
	rounds := runUntilConverged(t, tc, all, want, 40)
	t.Logf("membership converged in %d rounds", rounds)

	// Digests must follow: every node eventually holds a versioned digest
	// for every peer, and the service index answers from the local view.
	cfg := tc.gs[0].Config()
	for r := 0; ; r++ {
		if r > 40 {
			t.Fatal("digests not fully disseminated after 40 extra rounds")
		}
		complete := true
		for _, g := range tc.gs {
			for _, m := range g.Members() {
				if m.Digest.Version == 0 {
					complete = false
				}
			}
		}
		if complete {
			break
		}
		tc.step(cfg.ProbeInterval)
	}
	for gi, g := range tc.gs {
		hosts := g.HostsFor("svc-1")
		if len(hosts) != 4 {
			t.Fatalf("node %d HostsFor(svc-1) = %d hosts, want 4", gi, len(hosts))
		}
		for _, h := range hosts {
			idx := tc.c.Index(h.ID)
			if idx%4 != 1 {
				t.Errorf("node %d HostsFor(svc-1) includes node %d", gi, idx)
			}
			rep, ok := g.ReportFor(h.ID)
			if !ok || rep.InBpsCap != float64(1000+idx) {
				t.Errorf("node %d ReportFor(node %d) = %+v ok=%v", gi, idx, rep, ok)
			}
		}
	}
}

// TestChurnAndPartitionConvergence32 is the churn satellite: a 32-node
// overlay, two nodes cut off by a partition and three killed outright;
// every survivor's view must converge (dead nodes marked dead) within a
// bounded number of protocol rounds, and after the partition heals the
// cut-off nodes must be re-admitted everywhere. Fully deterministic: one
// seed, virtual clock, no wall-clock sleeps.
func TestChurnAndPartitionConvergence32(t *testing.T) {
	const (
		n         = 32
		seed      = 11
		killFrom  = 27 // nodes 27..29 are killed (fail-stop)
		partFrom  = 30 // nodes 30,31 are partitioned away, later healed
		boundKill = 60 // rounds for survivors to converge after the churn
		boundHeal = 400
	)
	tc := newGossipCluster(n, seed, testConfig(), true)

	allAlive := map[int]State{}
	all := make([]int, n)
	for i := range all {
		all[i] = i
		allAlive[i] = StateAlive
	}
	runUntilConverged(t, tc, all, allAlive, 60)

	// Partition 30,31 from everyone else (both stay up), and kill 27..29.
	setPartition := func(blocked bool) {
		for i := partFrom; i < n; i++ {
			for j := 0; j < partFrom; j++ {
				tc.c.Net.SetPartition(tc.c.NetIDs[i], tc.c.NetIDs[j], blocked)
			}
		}
	}
	setPartition(true)
	for i := killFrom; i < partFrom; i++ {
		tc.gs[i].Stop()
		tc.c.Endpoints[i].Close()
	}

	survivors := make([]int, 0, killFrom)
	want := map[int]State{}
	for i := 0; i < n; i++ {
		switch {
		case i < killFrom:
			want[i] = StateAlive
			survivors = append(survivors, i)
		default:
			want[i] = StateDead // killed and partitioned both appear dead
		}
	}
	rounds := runUntilConverged(t, tc, survivors, want, boundKill)
	t.Logf("survivor views converged %d rounds after churn", rounds)

	// Heal the partition. The majority holds 30,31 as dead and no longer
	// probes them; recovery rides the gossip-to-the-dead anti-entropy path
	// plus incarnation refutation, so give it sync-interval-scale rounds.
	setPartition(false)
	healed := map[int]State{}
	for i := 0; i < n; i++ {
		if i >= killFrom && i < partFrom {
			healed[i] = StateDead
		} else {
			healed[i] = StateAlive
		}
	}
	checkHealed := append(append([]int{}, survivors...), partFrom, partFrom+1)
	rounds = runUntilConverged(t, tc, checkHealed, healed, boundHeal)
	t.Logf("partitioned nodes re-admitted %d rounds after heal", rounds)
}

func TestDeterministicReplay(t *testing.T) {
	render := func() string {
		tc := newGossipCluster(8, 3, testConfig(), true)
		tc.step(10 * time.Second)
		tc.gs[5].Stop()
		tc.c.Endpoints[5].Close()
		tc.step(10 * time.Second)
		out := ""
		for i, g := range tc.gs {
			out += fmt.Sprintf("node %d rounds %d:", i, g.Rounds())
			for _, m := range g.Members() {
				out += fmt.Sprintf(" %s/%d/v%d", m.State, m.Incarnation, m.Digest.Version)
			}
			out += "\n"
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed diverged:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// fixture returns an idle 2-node cluster for white-box state machine
// tests: g is node 0's instance, peer is node 1's identity. Both protocol
// loops are stopped and node 0's piggyback queue cleared so only the
// test's own calls mutate state.
func fixture(t *testing.T) (*gossipCluster, *Gossip, overlay.NodeInfo) {
	t.Helper()
	tc := newGossipCluster(2, 5, testConfig(), false)
	for _, g := range tc.gs {
		g.Stop()
	}
	g := tc.gs[0]
	g.queue = make(map[overlay.ID]*queued)
	return tc, g, tc.c.Nodes[1].Info()
}

func TestPrecedenceRules(t *testing.T) {
	_, g, peer := fixture(t)
	id := peer.ID

	// suspect{i} overrides alive{i}.
	g.apply(update{Node: peer, State: StateSuspect, Inc: 0})
	if m, _ := g.Member(id); m.State != StateSuspect {
		t.Fatalf("suspect{0} over alive{0}: state %v", m.State)
	}
	// alive{i} does not clear suspect{i}...
	g.apply(update{Node: peer, State: StateAlive, Inc: 0})
	if m, _ := g.Member(id); m.State != StateSuspect {
		t.Fatalf("alive{0} cleared suspect{0}: state %v", m.State)
	}
	// ...but alive{i+1} (a refutation) does.
	g.apply(update{Node: peer, State: StateAlive, Inc: 1})
	if m, _ := g.Member(id); m.State != StateAlive || m.Incarnation != 1 {
		t.Fatalf("alive{1} over suspect{0}: %+v", m)
	}
	// dead{i-1} loses to alive{i}.
	g.apply(update{Node: peer, State: StateDead, Inc: 0})
	if m, _ := g.Member(id); m.State != StateAlive {
		t.Fatalf("dead{0} overrode alive{1}: state %v", m.State)
	}
	// dead{i} overrides alive{i}.
	g.apply(update{Node: peer, State: StateDead, Inc: 1})
	if m, _ := g.Member(id); m.State != StateDead {
		t.Fatalf("dead{1} did not override alive{1}: state %v", m.State)
	}
	// suspect/alive at any ≤ incarnation cannot resurrect a tombstone.
	g.apply(update{Node: peer, State: StateAlive, Inc: 1})
	g.apply(update{Node: peer, State: StateSuspect, Inc: 1})
	if m, _ := g.Member(id); m.State != StateDead {
		t.Fatalf("tombstone resurrected by stale gossip: state %v", m.State)
	}
	// A strictly higher incarnation can only come from the node itself, so
	// it revives even a tombstone (rejoin).
	g.apply(update{Node: peer, State: StateAlive, Inc: 2})
	if m, _ := g.Member(id); m.State != StateAlive || m.Incarnation != 2 {
		t.Fatalf("alive{2} did not revive tombstone: %+v", m)
	}
}

func TestDeadUpdateForUnknownMemberLeavesTombstone(t *testing.T) {
	tc, g, _ := fixture(t)
	ghost := overlay.NodeInfo{ID: overlay.HashID("ghost"), Addr: "mem-999"}
	g.apply(update{Node: ghost, State: StateDead, Inc: 3})
	if m, ok := g.Member(ghost.ID); !ok || m.State != StateDead || m.Incarnation != 3 {
		t.Fatalf("tombstone not recorded: %+v ok=%v", m, ok)
	}
	// Stale alive gossip must not resurrect it.
	g.apply(update{Node: ghost, State: StateAlive, Inc: 3})
	if m, _ := g.Member(ghost.ID); m.State != StateDead {
		t.Fatalf("stale alive resurrected tombstone: %+v", m)
	}
	// The tombstone ages out after DeadRetention.
	tc.step(g.Config().DeadRetention + time.Second)
	if _, ok := g.Member(ghost.ID); ok {
		t.Fatal("tombstone survived DeadRetention")
	}
}

func TestSelfRefutation(t *testing.T) {
	_, g, _ := fixture(t)
	self := g.node.Info()
	g.apply(update{Node: self, State: StateSuspect, Inc: 0})
	if g.incarnation != 1 {
		t.Fatalf("incarnation after refuting suspect{0}: %d", g.incarnation)
	}
	if m, _ := g.Member(self.ID); m.State != StateAlive || m.Incarnation != 1 {
		t.Fatalf("self entry after refutation: %+v", m)
	}
	q, ok := g.queue[self.ID]
	if !ok || q.u.State != StateAlive || q.u.Inc != 1 {
		t.Fatalf("refutation not queued: %+v ok=%v", q, ok)
	}
	// A death rumor about self at a higher incarnation is also refuted.
	g.apply(update{Node: self, State: StateDead, Inc: 4})
	if g.incarnation != 5 {
		t.Fatalf("incarnation after refuting dead{4}: %d", g.incarnation)
	}
	// Stale rumors below the current incarnation are ignored.
	g.apply(update{Node: self, State: StateSuspect, Inc: 2})
	if g.incarnation != 5 {
		t.Fatalf("stale rumor bumped incarnation: %d", g.incarnation)
	}
}

func TestDigestMergeKeepsNewestVersion(t *testing.T) {
	_, g, peer := fixture(t)
	d3 := &Digest{Version: 3, Report: monitor.Report{InBpsCap: 3}}
	d2 := &Digest{Version: 2, Report: monitor.Report{InBpsCap: 2}}
	d5 := &Digest{Version: 5, Report: monitor.Report{InBpsCap: 5}}
	g.apply(update{Node: peer, State: StateAlive, Inc: 0, Digest: d3})
	g.apply(update{Node: peer, State: StateAlive, Inc: 0, Digest: d2})
	if m, _ := g.Member(peer.ID); m.Digest.Version != 3 {
		t.Fatalf("older digest overwrote newer: v%d", m.Digest.Version)
	}
	g.apply(update{Node: peer, State: StateAlive, Inc: 0, Digest: d5})
	m, _ := g.Member(peer.ID)
	if m.Digest.Version != 5 || m.Digest.Report.InBpsCap != 5 {
		t.Fatalf("newest digest not kept: %+v", m.Digest)
	}
	if rep, ok := g.ReportFor(peer.ID); !ok || rep.InBpsCap != 5 {
		t.Fatalf("ReportFor = %+v ok=%v", rep, ok)
	}
	// Suspect members are not a valid stats source.
	g.apply(update{Node: peer, State: StateSuspect, Inc: 0})
	if _, ok := g.ReportFor(peer.ID); ok {
		t.Fatal("ReportFor returned stats for a suspect member")
	}
}

func TestPiggybackBudget(t *testing.T) {
	_, g, peer := fixture(t)
	g.cfg.MaxPiggyback = 1
	g.enqueue(update{Node: peer, State: StateSuspect, Inc: 0})
	limit := g.retransmitLimit()
	for i := 0; i < limit; i++ {
		us := g.pickUpdates()
		if len(us) != 1 || us[0].Node.ID != peer.ID {
			t.Fatalf("transmit %d: picked %+v", i, us)
		}
	}
	if len(g.queue) != 0 {
		t.Fatalf("update not retired after %d transmits", limit)
	}
	if us := g.pickUpdates(); us != nil {
		t.Fatalf("empty queue yielded %+v", us)
	}
	// A newer update about the same node replaces the queued one and
	// resets its budget.
	g.enqueue(update{Node: peer, State: StateSuspect, Inc: 1})
	g.pickUpdates()
	g.enqueue(update{Node: peer, State: StateDead, Inc: 1})
	if q := g.queue[peer.ID]; q.transmits != 0 || q.u.State != StateDead {
		t.Fatalf("replacement did not reset budget: %+v", q)
	}
}

func TestSummaryCountsAndDigestAge(t *testing.T) {
	_, g, peer := fixture(t)
	s := g.Summary()
	if s.Alive != 2 || s.Suspect != 0 || s.Dead != 0 || s.OldestDigestAgeMs != -1 {
		t.Fatalf("initial summary: %+v", s)
	}
	g.apply(update{Node: peer, State: StateAlive, Inc: 0, Digest: &Digest{Version: 1}})
	// Backdate the learn time: age is measured against the local clock.
	g.members[peer.ID].DigestAt = g.clk.Now() - 1500*time.Millisecond
	s = g.Summary()
	if s.OldestDigestAgeMs < 1500 {
		t.Fatalf("digest age %dms, want ≥1500", s.OldestDigestAgeMs)
	}
	g.apply(update{Node: peer, State: StateDead, Inc: 0})
	s = g.Summary()
	if s.Alive != 1 || s.Dead != 1 || s.OldestDigestAgeMs != -1 {
		t.Fatalf("summary after death: %+v", s)
	}
}

// TestStoppedInstanceReportsNoVerdicts stops an instance while it holds a
// pending suspicion: the suspicion timer still settles the member dead,
// but no OnMemberDead callback runs, because a crashed detector must not
// pass a verdict on a peer it can no longer observe.
func TestStoppedInstanceReportsNoVerdicts(t *testing.T) {
	tc := newGossipCluster(2, 7, testConfig(), false)
	tc.step(3 * time.Second)
	g, peer := tc.gs[0], tc.c.Nodes[1].Info()
	reports := 0
	g.OnMemberDead(func(overlay.NodeInfo) { reports++ })
	// Silence the peer so nothing refutes the suspicion.
	tc.gs[1].Stop()
	tc.c.Endpoints[1].Close()
	g.suspect(peer.ID)
	if m, _ := g.Member(peer.ID); m.State != StateSuspect {
		t.Fatalf("peer state %v after suspect, want suspect", m.State)
	}
	g.Stop()
	tc.step(2 * g.Config().SuspicionTimeout)
	if m, _ := g.Member(peer.ID); m.State != StateDead {
		t.Fatalf("peer state %v after the suspicion timeout, want dead", m.State)
	}
	if reports != 0 {
		t.Fatalf("stopped instance fired OnMemberDead %d times, want 0", reports)
	}
}
