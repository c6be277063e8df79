package core

import (
	"errors"
	"testing"
	"time"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/spec"
)

// cpuCand builds a candidate that reports CPU capacity.
func cpuCand(i int, availBps, drop, speed, cpuUsed float64) Candidate {
	c := cand(i, availBps, drop)
	c.Report.SpeedFactor = speed
	c.Report.CPUFraction = cpuUsed
	return c
}

// cpuCatalog returns a single-service catalog with a 10ms/unit cost.
func cpuCatalog() map[string]spec.ServiceDef {
	return map[string]spec.ServiceDef{
		"heavy": {Name: "heavy", ProcPerUnit: 10 * time.Millisecond, RateRatio: 1, BytesRatio: 1},
	}
}

func TestMinCostCPUCapsSlowNode(t *testing.T) {
	// Slow host (speed 0.1): CPU limit = 0.1/10ms = 10 units/sec even
	// though its bandwidth allows hundreds. The fast host has a worse
	// drop ratio, so a bandwidth-only composer puts everything on the
	// slow host; the CPU-aware composer must move at least 40 of the 50
	// units to the fast host.
	in := baseInput(req1(50, "heavy"))
	in.Catalog = cpuCatalog()
	slow := cpuCand(1, 10_000*kbit, 0.0, 0.1, 0)
	fast := cpuCand(2, 10_000*kbit, 0.1, 1.0, 0)
	in.Candidates["heavy"] = []Candidate{slow, fast}

	plain, err := (&MinCost{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Placements) != 1 || plain.Placements[0].Host.ID != testHost(1).ID {
		t.Fatalf("bandwidth-only composer should pick the zero-drop slow host: %+v", plain.Placements)
	}

	aware, err := (&MinCost{UseCPU: true}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(aware, in.Catalog); err != nil {
		t.Fatal(err)
	}
	var onSlow, onFast float64
	for _, p := range aware.Placements {
		switch p.Host.ID {
		case testHost(1).ID:
			onSlow += p.Rate
		case testHost(2).ID:
			onFast += p.Rate
		}
	}
	if onSlow > 10 {
		t.Fatalf("CPU-aware composer overcommitted slow host: %g units/sec", onSlow)
	}
	if onFast < 40 {
		t.Fatalf("fast host carries only %g units/sec", onFast)
	}
}

func TestMinCostCPURejectsWhenCPUExhausted(t *testing.T) {
	in := baseInput(req1(50, "heavy"))
	in.Catalog = cpuCatalog()
	// Both hosts CPU-capped at 10 units/sec: 20 total < 50.
	in.Candidates["heavy"] = []Candidate{
		cpuCand(1, 10_000*kbit, 0, 0.1, 0),
		cpuCand(2, 10_000*kbit, 0, 0.1, 0),
	}
	if _, err := (&MinCost{UseCPU: true}).Compose(in); !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want rejection on CPU", err)
	}
	// The bandwidth-only composer happily (and wrongly) accepts.
	if _, err := (&MinCost{}).Compose(in); err != nil {
		t.Fatalf("bandwidth-only composer should accept: %v", err)
	}
}

func TestMinCostCPUBusyFractionCounts(t *testing.T) {
	in := baseInput(req1(8, "heavy"))
	in.Catalog = cpuCatalog()
	// Speed 1.0 but 90% busy: remaining CPU supports 0.1/10ms = 10
	// units/sec; headroom 1.0 in baseInput, so 8 fits but 12 would not.
	in.Candidates["heavy"] = []Candidate{cpuCand(1, 10_000*kbit, 0, 1.0, 0.9)}
	if _, err := (&MinCost{UseCPU: true}).Compose(in); err != nil {
		t.Fatal(err)
	}
	in2 := baseInput(req1(12, "heavy"))
	in2.Catalog = cpuCatalog()
	in2.Candidates["heavy"] = in.Candidates["heavy"]
	if _, err := (&MinCost{UseCPU: true}).Compose(in2); !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want rejection at 12 units/sec on 10%% CPU", err)
	}
}

func TestMinCostCPUConsumedAcrossSubstreams(t *testing.T) {
	req := spec.Request{
		ID:        "cpu2",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{"heavy"}, Rate: 6},
			{Services: []string{"heavy"}, Rate: 6},
		},
	}
	in := baseInput(req)
	in.Catalog = cpuCatalog()
	// One host with CPU for 10 units/sec total, one with plenty.
	in.Candidates["heavy"] = []Candidate{
		cpuCand(1, 10_000*kbit, 0, 0.1, 0), // 10 units/sec CPU
		cpuCand(2, 10_000*kbit, 0, 1.0, 0), // 100 units/sec CPU
	}
	g, err := (&MinCost{UseCPU: true}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	var onSlow float64
	for _, p := range g.Placements {
		if p.Host.ID == testHost(1).ID {
			onSlow += p.Rate
		}
	}
	if onSlow > 10 {
		t.Fatalf("slow host carries %g units/sec across substreams, CPU limit 10", onSlow)
	}
}

func TestLPCPURowEnforced(t *testing.T) {
	in := baseInput(req1(50, "heavy"))
	in.Catalog = cpuCatalog()
	in.Candidates["heavy"] = []Candidate{
		cpuCand(1, 10_000*kbit, 0.0, 0.1, 0),
		cpuCand(2, 10_000*kbit, 0.1, 1.0, 0),
	}
	g, err := (LP{UseCPU: true}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	var onSlow float64
	for _, p := range g.Placements {
		if p.Host.ID == testHost(1).ID {
			onSlow += p.Rate
		}
	}
	if onSlow > 10+1e-6 {
		t.Fatalf("LP overcommitted slow host CPU: %g units/sec", onSlow)
	}
	if g.Composer != "lp-cpu" {
		t.Fatalf("Composer = %q", g.Composer)
	}
}

func TestComposerNamesCPU(t *testing.T) {
	c, err := ByName("mincost-cpu")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "mincost-cpu" {
		t.Fatalf("mincost-cpu reports %q", c.Name())
	}
	// The LP is the tests' oracle, not a composer the product builds.
	for _, name := range []string{"lp", "lp-cpu"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("ByName(%q) built a composer", name)
		}
	}
}

func TestHostsWithoutCPUDataUnaffected(t *testing.T) {
	// UseCPU with hosts that do not report CPU: bandwidth-only behavior.
	in := baseInput(req1(10, "heavy"))
	in.Catalog = cpuCatalog()
	in.Candidates["heavy"] = []Candidate{cand(1, 1000*kbit, 0)}
	g, err := (&MinCost{UseCPU: true}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Placements[0].Rate != 10 {
		t.Fatalf("rate = %g", g.Placements[0].Rate)
	}
}

func TestReportAvailCPU(t *testing.T) {
	r := monitor.Report{SpeedFactor: 1.2, CPUFraction: 0.25}
	if got := r.AvailCPU(); got != 0.75 {
		t.Fatalf("AvailCPU = %g", got)
	}
	if (monitor.Report{}).AvailCPU() != 0 {
		t.Fatal("no-CPU report must return 0")
	}
}
