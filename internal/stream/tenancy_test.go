package stream_test

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
)

// engineView snapshots every engine's externally visible state: hosted
// component counts, origin application counts, and the full composition
// snapshots as JSON.
func engineView(t *testing.T, s *deploy.System) string {
	t.Helper()
	type view struct {
		Components int
		Origins    int
		Comps      json.RawMessage
	}
	views := make([]view, len(s.Engines))
	for i, e := range s.Engines {
		b, err := json.Marshal(e.CompositionSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		views[i] = view{Components: e.Components(), Origins: e.ActiveRequests(), Comps: b}
	}
	out, err := json.Marshal(views)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRejectedSubmitLeavesStateUntouched is the admission-accounting
// regression: a submit the gate turns away must cost no RPC and leave
// every engine's view bit-identical — the running tenant keeps its full
// allocation.
func TestRejectedSubmitLeavesStateUntouched(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes: 12, Seed: 31,
		// 120 Kbps budget: fits the 100 Kbps incumbent whole, and a
		// best-effort newcomer cannot displace it. No queue: infeasible
		// admissions are rejected outright.
		Tenancy: &tenant.Config{CapacityBps: 1.2e5, QueueCapacity: -1},
	})
	r1 := simpleRequest("ten-r1", 10, "filter", "transcode")
	submit(t, s, 0, r1, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)

	before := engineView(t, s)
	beforeTotals := s.Gate.Totals()

	r2 := simpleRequest("ten-r2", 20, "filter")
	r2.Priority = spec.BestEffort
	var gotErr error
	done := false
	s.Engines[1].Submit(r2, &core.MinCost{}, rpcTimeout, func(_ *core.ExecutionGraph, err error) {
		done, gotErr = true, err
	})
	runUntilDone(t, s, &done)
	if !errors.Is(gotErr, tenant.ErrAdmissionRejected) {
		t.Fatalf("submit error = %v, want ErrAdmissionRejected", gotErr)
	}
	var aerr *tenant.AdmissionError
	if !errors.As(gotErr, &aerr) || aerr.App != "ten-r2" {
		t.Fatalf("error not a typed AdmissionError for ten-r2: %v", gotErr)
	}
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)

	if after := engineView(t, s); after != before {
		t.Errorf("rejected submit changed engine state:\nbefore: %s\nafter:  %s", before, after)
	}
	afterTotals := s.Gate.Totals()
	if afterTotals.Admitted != beforeTotals.Admitted || afterTotals.Queued != 0 {
		t.Errorf("gate totals moved: before %+v after %+v", beforeTotals, afterTotals)
	}
	if afterTotals.Rejections != beforeTotals.Rejections+1 {
		t.Errorf("rejections = %d, want %d", afterTotals.Rejections, beforeTotals.Rejections+1)
	}
	if s.Gate.Has("ten-r2") {
		t.Error("gate still tracks the rejected application")
	}
	if cap, ok := s.Gate.CapBps("ten-r1"); !ok || cap < r1.BitsPerSecond(r1.TotalRate())-1 {
		t.Errorf("incumbent cap disturbed: %f (ok=%v)", cap, ok)
	}
}

// TestFailedInstantiationRollsBack is the capacity-accounting regression
// for the instantiation path: when composition places a component on a
// host that dies before acking, the partial instantiation is rolled back
// — hosts that acked drop their components, the origin registers
// nothing, and the tenant's admission is released. The sources started when
// the instantiate messages were sent, so the rollback also has to stop
// them, and every unit they emitted meanwhile must be a counted drop.
func TestFailedInstantiationRollsBack(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes: 12, Seed: 32,
		// Gossip-disseminated stats: composition keeps trusting a
		// just-killed host's digest until the failure detector catches
		// up, which is what steers a placement onto it.
		EnableGossip: true,
		Tenancy:      &tenant.Config{CapacityBps: 1e6, PerHostLedger: true},
	})
	// Let the membership protocol disseminate the initial digests.
	s.Sim.RunUntil(s.Sim.Now() + 12*time.Second)

	// Pick a service the origin does not offer, and one it could reach on
	// surviving hosts.
	offered := func(node int, svc string) bool {
		for _, sv := range s.Placement[node] {
			if sv == svc {
				return true
			}
		}
		return false
	}
	victim := ""
	for _, svc := range []string{"filter", "transcode", "aggregate", "encrypt", "compress"} {
		if !offered(0, svc) {
			victim = svc
			break
		}
	}
	if victim == "" {
		t.Skip("origin offers every probe service at this seed")
	}
	// Kill every host offering the victim service: the composer must
	// place it on a dead host, and that instantiation must time out.
	for i := 1; i < len(s.Engines); i++ {
		if offered(i, victim) {
			s.Kill(i)
		}
	}
	if offered(0, victim) {
		t.Fatal("origin offers the victim service; the local placement cannot fail")
	}

	before := make([]int, len(s.Engines))
	for i, e := range s.Engines {
		before[i] = e.Components()
	}

	req := simpleRequest("ten-roll", 5, victim)
	var gotErr error
	done := false
	s.Engines[0].Submit(req, &core.MinCost{}, rpcTimeout, func(_ *core.ExecutionGraph, err error) {
		done, gotErr = true, err
	})
	runUntilDone(t, s, &done)
	if gotErr == nil {
		t.Fatal("submit succeeded with every candidate host dead")
	}
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)

	for i, e := range s.Engines {
		if e.Components() != before[i] {
			t.Errorf("engine %d holds %d components after the failed submit, had %d", i, e.Components(), before[i])
		}
	}
	if s.Engines[0].ActiveRequests() != 0 {
		t.Errorf("origin still tracks %d applications", s.Engines[0].ActiveRequests())
	}
	if s.Gate.Has("ten-roll") {
		t.Error("gate still holds the failed application's admission")
	}
	if tt := s.Gate.Totals(); tt.Admitted != 0 {
		t.Errorf("gate reports %d admitted tenants, want 0", tt.Admitted)
	}
	if len(s.Gate.Hosts()) == 0 {
		t.Fatal("the gate keeps no per-host ledger; the charge check below is vacuous")
	}
	for _, h := range s.Gate.Hosts() {
		if h.CommittedBps != 0 {
			t.Errorf("host %s is still charged %.0f bps in the ledger", h.Host, h.CommittedBps)
		}
	}

	// The sources ran from the instantiate send to the rollback: what they
	// emitted is all dropped (no host could run it), nothing is held, and
	// they have stopped.
	totals := func() (tp stream.Throughput, held int) {
		for _, e := range s.Engines {
			tp.Accumulate(e.Throughput("ten-roll", 0))
			held += e.HeldUnits()
		}
		return tp, held
	}
	tp, held := totals()
	if tp.EmittedUnits == 0 {
		t.Error("the request emitted nothing before its rollback; sources did not start at the instantiate send")
	}
	if tp.DeliveredUnits != 0 || tp.DroppedUnits != tp.EmittedUnits || held != 0 {
		t.Errorf("emitted %d, delivered %d, dropped %d, held %d; want every emitted unit dropped",
			tp.EmittedUnits, tp.DeliveredUnits, tp.DroppedUnits, held)
	}
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	if later, _ := totals(); later.EmittedUnits != tp.EmittedUnits {
		t.Errorf("the origin emitted %d more units after the rollback; a source survived it", later.EmittedUnits-tp.EmittedUnits)
	}
}
