package tenant

import (
	"errors"
	"fmt"
	"testing"

	"rasc.dev/rasc/internal/spec"
)

func TestLedgerCapacityTracksHosts(t *testing.T) {
	g := NewGate(Config{PerHostLedger: true})
	if !g.PerHostLedger() {
		t.Fatal("PerHostLedger() = false")
	}
	g.UpsertHost("h1", 6000)
	g.UpsertHost("h2", 4000)
	if c := g.CapacityBps(); c != 10000 {
		t.Fatalf("capacity %v, want 10000 (sum of host budgets)", c)
	}
	// Re-announcing an unchanged budget is a no-op; a resized one moves
	// the aggregate by the delta.
	g.UpsertHost("h1", 6000)
	g.UpsertHost("h1", 8000)
	if c := g.CapacityBps(); c != 12000 {
		t.Fatalf("capacity %v, want 12000 after resize", c)
	}
	hosts := g.Hosts()
	if len(hosts) != 2 || hosts[0].Host != "h1" || hosts[1].Host != "h2" {
		t.Fatalf("hosts = %+v", hosts)
	}
	if hosts[0].CapacityBps != 8000 {
		t.Fatalf("h1 capacity %v", hosts[0].CapacityBps)
	}
}

// TestLedgerDeadHostReleasedExactlyOnce is the regression pinning the
// gossip-death contract: duplicate death verdicts for the same host —
// breaker-driven suspicion plus the gossip timeout, or verdicts arriving
// on several nodes' callbacks — must decrement the aggregate exactly
// once.
func TestLedgerDeadHostReleasedExactlyOnce(t *testing.T) {
	g := NewGate(Config{PerHostLedger: true})
	g.UpsertHost("h1", 6000)
	g.UpsertHost("h2", 4000)
	g.Admit("a", spec.Standard, 5000, nil)

	g.RemoveHost("h1")
	if c := g.CapacityBps(); c != 4000 {
		t.Fatalf("capacity %v after death, want 4000", c)
	}
	// The duplicate verdict must change nothing.
	g.RemoveHost("h1")
	g.RemoveHost("h1")
	if c := g.CapacityBps(); c != 4000 {
		t.Fatalf("capacity %v after duplicate deaths, want 4000", c)
	}
	if hosts := g.Hosts(); len(hosts) != 1 || hosts[0].Host != "h2" {
		t.Fatalf("hosts = %+v", hosts)
	}
	// The shrunken capacity re-settles the allocation.
	if cap, ok := g.CapBps("a"); !ok || cap != 4000 {
		t.Fatalf("a's cap %v %v after death, want 4000", cap, ok)
	}
	// A rejoined host restores its budget once, idempotently.
	g.UpsertHost("h1", 6000)
	if c := g.CapacityBps(); c != 10000 {
		t.Fatalf("capacity %v after rejoin, want 10000", c)
	}
}

// TestLedgerHostStorm drives a contended ledger gate through a correlated
// host-death storm, the storm hosts' rejoin, and permanent deaths whose
// verdicts arrive twice: the storm's capacity collapse preempts someone,
// the rejoin promotes someone, and the final budget is exactly the
// survivors' per-host budgets.
func TestLedgerHostStorm(t *testing.T) {
	const hosts, storm, dead, perHost = 16, 4, 2, 1000.0
	host := func(i int) string { return fmt.Sprintf("host-%02d", i) }
	rec := newRecorder()
	counts := func() (preempted, promoted int) {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.preempted), len(rec.promoted)
	}
	g := NewGate(Config{PerHostLedger: true, MinShareFraction: 0.4, QueueCapacity: 64})
	for i := 0; i < hosts; i++ {
		g.UpsertHost(host(i), perHost)
	}
	// Per ten tenants one Critical, three Standard and six BestEffort,
	// demanding about 1.5 times the cluster budget between them.
	pris := []spec.Priority{spec.Critical, spec.Standard, spec.Standard, spec.Standard,
		spec.BestEffort, spec.BestEffort, spec.BestEffort, spec.BestEffort, spec.BestEffort, spec.BestEffort}
	for i := 0; i < 40; i++ {
		g.Admit(fmt.Sprintf("app-%02d", i), pris[i%len(pris)], float64(400+50*(i%9)), rec)
	}
	if tt := g.Totals(); tt.Admitted == 0 || tt.Queued == 0 {
		t.Fatalf("totals %+v: want both admitted and parked tenants at this contention", tt)
	}

	before, _ := counts()
	for i := 0; i < storm; i++ {
		g.RemoveHost(host(i))
	}
	g.RemoveHost(host(0)) // a duplicate verdict mid-storm changes nothing
	preempted, promoted := counts()
	if preempted == before {
		t.Fatal("host-death storm preempted nobody")
	}
	for i := 0; i < storm; i++ {
		g.UpsertHost(host(i), perHost)
	}
	if _, p := counts(); p == promoted {
		t.Fatal("host-rejoin storm promoted nobody")
	}

	for i := storm; i < storm+dead; i++ {
		g.RemoveHost(host(i))
		g.RemoveHost(host(i))
	}
	if got, want := g.CapacityBps(), perHost*(hosts-dead); got != want {
		t.Fatalf("final capacity %v, want %v (dead-host budgets released exactly once)", got, want)
	}
	if n := len(g.Hosts()); n != hosts-dead {
		t.Fatalf("%d ledger rows, want %d", n, hosts-dead)
	}
}

func TestLedgerPlacementProbe(t *testing.T) {
	g := NewGate(Config{PerHostLedger: true, MinShareFraction: 0.5, QueueCapacity: 4})
	g.UpsertHost("h1", 6000)
	g.UpsertHost("h2", 4000)

	// Fits: h1 has 6000 free ≥ 0.5·10000.
	if dec := g.Admit("a", spec.Standard, 10000, nil); dec.State != StateAdmitted {
		t.Fatalf("a: %+v", dec)
	}
	// Charge a's placements onto h1, filling it.
	g.SetPlacements("a", map[string]float64{"h1": 6000})
	hosts := g.Hosts()
	if hosts[0].CommittedBps != 6000 {
		t.Fatalf("h1 committed %v", hosts[0].CommittedBps)
	}
	// b needs a host with 0.5·9000 = 4500 headroom; the best is h2 with
	// 4000 — parked even though the aggregate has room.
	dec := g.Admit("b", spec.Standard, 9000, nil)
	if dec.State != StateQueued {
		t.Fatalf("b should queue on placement infeasibility: %+v", dec)
	}
	var ae *AdmissionError
	if !errors.As(dec.Err, &ae) || ae.Reason != "no host with placement headroom" {
		t.Fatalf("b's reason: %v", dec.Err)
	}
	// A small demand still fits on h2.
	if dec := g.Admit("c", spec.Standard, 8000, nil); dec.State != StateAdmitted {
		t.Fatalf("c: %+v", dec)
	}
	// Re-placing a elsewhere releases h1's committed budget.
	g.SetPlacements("a", map[string]float64{"h2": 3000})
	hosts = g.Hosts()
	if hosts[0].CommittedBps != 0 || hosts[1].CommittedBps != 3000 {
		t.Fatalf("budgets after re-place: %+v", hosts)
	}
	// Releasing the tenant uncommits everything.
	g.Release("a")
	hosts = g.Hosts()
	if hosts[0].CommittedBps != 0 || hosts[1].CommittedBps != 0 {
		t.Fatalf("budgets after release: %+v", hosts)
	}
}

func TestLedgerDisabledProbePasses(t *testing.T) {
	// Without a ledger the probe must not park anyone — the legacy
	// aggregate-only behavior.
	g := NewGate(Config{CapacityBps: 10000})
	if dec := g.Admit("a", spec.Standard, 9000, nil); dec.State != StateAdmitted {
		t.Fatalf("a: %+v", dec)
	}
	// SetPlacements and host ops are no-ops without the ledger.
	g.SetPlacements("a", map[string]float64{"h1": 9000})
	if hosts := g.Hosts(); hosts != nil {
		t.Fatalf("hosts on a ledger-less gate: %+v", hosts)
	}
	if c := g.CapacityBps(); c != 10000 {
		t.Fatalf("capacity %v", c)
	}
}
