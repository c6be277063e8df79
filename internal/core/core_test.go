package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/transport"
)

// testHost fabricates a host identity.
func testHost(i int) overlay.NodeInfo {
	return overlay.NodeInfo{
		ID:   overlay.HashID(fmt.Sprintf("host-%d", i)),
		Addr: transport.Addr(fmt.Sprintf("sim://%d", i)),
	}
}

// report builds a monitoring report with the given available bandwidth
// (both directions) and drop ratio.
func report(availBps float64, drop float64) monitor.Report {
	return monitor.Report{InBpsCap: availBps, OutBpsCap: availBps, DropRatio: drop}
}

// cand pairs a host with a report.
func cand(i int, availBps, drop float64) Candidate {
	return Candidate{Info: testHost(i), Report: report(availBps, drop)}
}

// req1 builds a single-substream request: chain of services at rate
// units/sec with 1250-byte units (10 kbit → rate r means r*10 kbps).
func req1(rate int, chain ...string) spec.Request {
	return spec.Request{
		ID:         "r1",
		UnitBytes:  1250,
		Substreams: []spec.Substream{{Services: chain, Rate: rate}},
	}
}

const kbit = 1000.0

func baseInput(req spec.Request) Input {
	return Input{
		Request:      req,
		Source:       testHost(1000),
		Dest:         testHost(1001),
		SourceReport: report(10_000*kbit, 0),
		DestReport:   report(10_000*kbit, 0),
		Candidates:   map[string][]Candidate{},
		Rand:         rand.New(rand.NewSource(1)),
		Headroom:     1, // exact capacities: tests reason in whole units
	}
}

func TestMinCostSimpleChain(t *testing.T) {
	in := baseInput(req1(10, "filter", "transcode"))
	in.Candidates["filter"] = []Candidate{cand(1, 1000*kbit, 0)}
	in.Candidates["transcode"] = []Candidate{cand(2, 1000*kbit, 0)}
	g, err := (&MinCost{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	if len(g.Placements) != 2 {
		t.Fatalf("placements = %d, want 2", len(g.Placements))
	}
	for _, p := range g.Placements {
		if p.Rate != 10 {
			t.Fatalf("placement rate = %g, want 10", p.Rate)
		}
	}
	if g.Composer != "mincost" {
		t.Fatalf("Composer = %q", g.Composer)
	}
}

func TestMinCostSplitsAcrossInstances(t *testing.T) {
	// Rate 10 but each transcode host can carry only 6 units/sec
	// (60 kbps avail / 10 kbit units): RASC must split 6/4 or similar.
	in := baseInput(req1(10, "transcode"))
	in.Candidates["transcode"] = []Candidate{
		cand(1, 60*kbit, 0),
		cand(2, 60*kbit, 0),
	}
	g, err := (&MinCost{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	if len(g.Placements) != 2 {
		t.Fatalf("expected a split across 2 instances, got %d placements", len(g.Placements))
	}
	total := 0.0
	for _, p := range g.Placements {
		if p.Rate > 6 {
			t.Fatalf("placement exceeds host capacity: %g", p.Rate)
		}
		total += p.Rate
	}
	if total != 10 {
		t.Fatalf("split total = %g, want 10", total)
	}

	// The same request must be rejected by both baselines: no single
	// host has capacity 10.
	for _, c := range []Composer{Random{}, Greedy{}} {
		if _, err := c.Compose(in); !errors.Is(err, ErrNoFeasiblePlacement) {
			t.Fatalf("%s: err = %v, want ErrNoFeasiblePlacement", c.Name(), err)
		}
	}
}

func TestMinCostPrefersLowDropHosts(t *testing.T) {
	in := baseInput(req1(5, "filter"))
	in.Candidates["filter"] = []Candidate{
		cand(1, 1000*kbit, 0.30),
		cand(2, 1000*kbit, 0.00),
	}
	g, err := (&MinCost{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Placements) != 1 || g.Placements[0].Host.ID != testHost(2).ID {
		t.Fatalf("placements = %+v, want all flow on the zero-drop host", g.Placements)
	}
}

func TestMinCostCapacityUpdateAcrossSubstreams(t *testing.T) {
	// Two substreams use the same service; one host has capacity for
	// only the first.
	req := spec.Request{
		ID:        "r2",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{"filter"}, Rate: 6},
			{Services: []string{"filter"}, Rate: 6},
		},
	}
	in := baseInput(req)
	in.Candidates["filter"] = []Candidate{
		cand(1, 80*kbit, 0),  // 8 units/sec: fits one substream only
		cand(2, 100*kbit, 0), // 10 units/sec
	}
	g, err := (&MinCost{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	// Total per host across substreams must respect capacity.
	perHost := map[overlay.ID]float64{}
	for _, p := range g.Placements {
		perHost[p.Host.ID] += p.Rate
	}
	if perHost[testHost(1).ID] > 8 {
		t.Fatalf("host 1 overcommitted: %g", perHost[testHost(1).ID])
	}
	if perHost[testHost(2).ID] > 10 {
		t.Fatalf("host 2 overcommitted: %g", perHost[testHost(2).ID])
	}
}

func TestMinCostRejectsWhenCumulativeCapacityInsufficient(t *testing.T) {
	in := baseInput(req1(20, "transcode"))
	in.Candidates["transcode"] = []Candidate{
		cand(1, 60*kbit, 0),
		cand(2, 60*kbit, 0), // 12 units/sec total < 20
	}
	_, err := (&MinCost{}).Compose(in)
	if !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want ErrNoFeasiblePlacement", err)
	}
}

func TestMinCostRejectsUnknownService(t *testing.T) {
	in := baseInput(req1(5, "nonexistent"))
	_, err := (&MinCost{}).Compose(in)
	if !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v", err)
	}
}

func TestMinCostSourceUplinkBounds(t *testing.T) {
	in := baseInput(req1(10, "filter"))
	in.SourceReport = report(50*kbit, 0) // 5 units/sec uplink
	in.Candidates["filter"] = []Candidate{cand(1, 1000*kbit, 0)}
	_, err := (&MinCost{}).Compose(in)
	if !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want rejection on source uplink", err)
	}
}

func TestMinCostDestDownlinkBounds(t *testing.T) {
	in := baseInput(req1(10, "filter"))
	in.DestReport = report(50*kbit, 0)
	in.Candidates["filter"] = []Candidate{cand(1, 1000*kbit, 0)}
	_, err := (&MinCost{}).Compose(in)
	if !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want rejection on destination downlink", err)
	}
}

func TestMinCostNoSplitAblation(t *testing.T) {
	in := baseInput(req1(10, "transcode"))
	in.Candidates["transcode"] = []Candidate{
		cand(1, 200*kbit, 0.1),
		cand(2, 200*kbit, 0),
	}
	m := &MinCost{NoSplit: true}
	if m.Name() != "mincost-nosplit" {
		t.Fatalf("Name = %q", m.Name())
	}
	g, err := m.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Placements) != 1 {
		t.Fatalf("nosplit produced %d placements", len(g.Placements))
	}
	if g.Placements[0].Host.ID != testHost(2).ID {
		t.Fatal("nosplit must pick the lowest-drop feasible host")
	}
	// And it must reject what split composition could carry.
	in2 := baseInput(req1(10, "transcode"))
	in2.Candidates["transcode"] = []Candidate{
		cand(1, 60*kbit, 0),
		cand(2, 60*kbit, 0),
	}
	if _, err := m.Compose(in2); !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("nosplit err = %v, want rejection", err)
	}
}

func TestGreedyPicksLowestDrop(t *testing.T) {
	in := baseInput(req1(5, "filter", "aggregate"))
	in.Candidates["filter"] = []Candidate{
		cand(1, 1000*kbit, 0.2),
		cand(2, 1000*kbit, 0.05),
	}
	in.Candidates["aggregate"] = []Candidate{
		cand(3, 1000*kbit, 0.5),
		cand(4, 1000*kbit, 0.1),
	}
	g, err := (Greedy{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	if g.Placements[0].Host.ID != testHost(2).ID || g.Placements[1].Host.ID != testHost(4).ID {
		t.Fatalf("greedy placements = %+v", g.Placements)
	}
}

func TestGreedyStacksOnBestNodeUntilFull(t *testing.T) {
	// The §4.2 failure mode: greedy reads drops once and keeps loading
	// the best node. Host 1 (drop 0) has capacity 10; two stages at
	// rate 5 both land on it.
	in := baseInput(req1(5, "filter", "aggregate"))
	in.Candidates["filter"] = []Candidate{cand(1, 100*kbit, 0), cand(2, 1000*kbit, 0.1)}
	in.Candidates["aggregate"] = []Candidate{cand(1, 100*kbit, 0), cand(2, 1000*kbit, 0.1)}
	g, err := (Greedy{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Placements[0].Host.ID != testHost(1).ID || g.Placements[1].Host.ID != testHost(1).ID {
		t.Fatalf("greedy should stack on host 1: %+v", g.Placements)
	}
	if NumHosts(g) != 1 {
		t.Fatalf("NumHosts = %d", NumHosts(g))
	}
}

func TestRandomDeterministicUnderSeed(t *testing.T) {
	mk := func(seed int64) *ExecutionGraph {
		in := baseInput(req1(5, "filter"))
		in.Rand = rand.New(rand.NewSource(seed))
		in.Candidates["filter"] = []Candidate{
			cand(1, 1000*kbit, 0), cand(2, 1000*kbit, 0), cand(3, 1000*kbit, 0),
		}
		g, err := (Random{}).Compose(in)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(7), mk(7)
	if a.Placements[0].Host.ID != b.Placements[0].Host.ID {
		t.Fatal("same seed produced different placements")
	}
}

func TestRandomRespectsCapacity(t *testing.T) {
	in := baseInput(req1(10, "filter"))
	in.Candidates["filter"] = []Candidate{
		cand(1, 50*kbit, 0),   // 5 units/sec: infeasible
		cand(2, 1000*kbit, 0), // feasible
	}
	for seed := int64(0); seed < 20; seed++ {
		in.Rand = rand.New(rand.NewSource(seed))
		g, err := (Random{}).Compose(in)
		if err != nil {
			t.Fatal(err)
		}
		if g.Placements[0].Host.ID != testHost(2).ID {
			t.Fatal("random picked an infeasible host")
		}
	}
}

func TestRandomNeedsRand(t *testing.T) {
	in := baseInput(req1(1, "filter"))
	in.Rand = nil
	in.Candidates["filter"] = []Candidate{cand(1, 1000*kbit, 0)}
	if _, err := (Random{}).Compose(in); err == nil {
		t.Fatal("expected error without Rand")
	}
}

func TestInvalidRequestRejected(t *testing.T) {
	bad := spec.Request{ID: "x", UnitBytes: 1250} // no substreams
	for _, c := range []Composer{&MinCost{}, Random{}, Greedy{}} {
		in := baseInput(bad)
		if _, err := c.Compose(in); err == nil {
			t.Fatalf("%s accepted an invalid request", c.Name())
		}
	}
}

func TestCheckGraphCatchesViolations(t *testing.T) {
	g := &ExecutionGraph{
		Request: req1(5, "filter"),
		Source:  testHost(1000),
		Dest:    testHost(1001),
		Placements: []Placement{
			{Substream: 0, Stage: 0, Service: "filter", Host: testHost(1), Rate: 5},
		},
		Edges: []Edge{
			{Substream: 0, FromStage: -1, ToStage: 0, From: testHost(1000), To: testHost(1), Rate: 5},
			{Substream: 0, FromStage: 0, ToStage: 1, From: testHost(1), To: testHost(1001), Rate: 3}, // deficit!
		},
	}
	if err := CheckGraph(g, nil); err == nil {
		t.Fatal("CheckGraph missed a conservation violation")
	}
	g.Edges[1].Rate = 5
	if err := CheckGraph(g, nil); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestMultiSubstreamComposition(t *testing.T) {
	// Mirrors Figure 2: substream 1 = s1→s2, substream 2 = s3.
	req := spec.Request{
		ID:        "fig2",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{"s1", "s2"}, Rate: 8},
			{Services: []string{"s3"}, Rate: 4},
		},
	}
	in := baseInput(req)
	// Figure 4's hosting: s1 on n3,n4; s2 on n1,n2; s3 on n1,n3.
	in.Candidates["s1"] = []Candidate{cand(3, 500*kbit, 0), cand(4, 500*kbit, 0)}
	in.Candidates["s2"] = []Candidate{cand(1, 500*kbit, 0), cand(2, 500*kbit, 0)}
	in.Candidates["s3"] = []Candidate{cand(1, 500*kbit, 0), cand(3, 500*kbit, 0)}
	for _, c := range []Composer{&MinCost{}, Greedy{}, Random{}} {
		g, err := c.Compose(in)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if err := CheckGraph(g, nil); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

// Property: on random feasible instances, min-cost composition always
// meets the rate and never overcommits a host.
func TestMinCostPropertyRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		nHosts := 2 + rng.Intn(6)
		nStages := 1 + rng.Intn(3)
		rate := 2 + rng.Intn(12)
		chain := make([]string, nStages)
		in := baseInput(req1(rate, chain...))
		capacity := make(map[overlay.ID]int)
		totalCap := 0
		var cands []Candidate
		for h := 0; h < nHosts; h++ {
			units := 1 + rng.Intn(15)
			c := cand(h, float64(units)*10*kbit, rng.Float64()*0.3)
			cands = append(cands, c)
			capacity[c.Info.ID] = units
			totalCap += units
		}
		for j := range chain {
			chain[j] = fmt.Sprintf("svc%d", j)
			in.Request.Substreams[0].Services[j] = chain[j]
			in.Candidates[chain[j]] = cands
		}
		g, err := (&MinCost{}).Compose(in)
		if errors.Is(err, ErrNoFeasiblePlacement) {
			continue // genuinely infeasible instance
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckGraph(g, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Within one substream the flow reduction bounds each
		// (stage, host) component by the host capacity — the paper's
		// approximation of eq. 3 (the exact per-node constraint is
		// only enforced by the LP oracle).
		for _, p := range g.Placements {
			if p.Rate > float64(capacity[p.Host.ID])+1e-9 {
				t.Fatalf("trial %d: component overcommitted %g > %d", trial, p.Rate, capacity[p.Host.ID])
			}
		}
	}
}

func TestBestEffortAdmission(t *testing.T) {
	// Capacity for 12 of the requested 20 units/sec.
	mk := func() Input {
		in := baseInput(req1(20, "transcode"))
		in.Candidates["transcode"] = []Candidate{
			cand(1, 60*kbit, 0),
			cand(2, 60*kbit, 0),
		}
		return in
	}
	// All-or-nothing rejects.
	if _, err := (&MinCost{}).Compose(mk()); !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v", err)
	}
	// Best effort at 50% admits at 12 units/sec.
	m := &MinCost{BestEffortFraction: 0.5}
	if m.Name() != "mincost-besteffort" {
		t.Fatalf("Name = %q", m.Name())
	}
	in := mk()
	g, err := m.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Request.Substreams[0].Rate != 12 {
		t.Fatalf("admitted rate = %d, want 12", g.Request.Substreams[0].Rate)
	}
	// The caller's request must not be mutated.
	if in.Request.Substreams[0].Rate != 20 {
		t.Fatal("caller's request mutated")
	}
	if err := CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	// Below the fraction it still rejects.
	strict := &MinCost{BestEffortFraction: 0.7}
	if _, err := strict.Compose(mk()); !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want rejection below fraction", err)
	}
}

func TestBestEffortByName(t *testing.T) {
	c, err := ByName("mincost-besteffort")
	if err != nil || c.Name() != "mincost-besteffort" {
		t.Fatalf("ByName: %v / %v", c, err)
	}
}
