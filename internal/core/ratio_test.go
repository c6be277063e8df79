package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
)

// ratioServices draws chains from the extended catalogue with its three
// ratio services (downsample 0.5, upsample 2, shrink bytes 0.5) as likely
// as all the unit-ratio ones together.
var ratioServices = []string{
	"downsample", "upsample", "shrink",
	"filter", "transcode", "encrypt",
}

// randomRatioInput builds a seeded instance over services.Extended():
// 1–3 substreams of 1–4 stages, hosts offering a few services each, some
// reporting CPU, and capacities tight enough that a stage often has to
// split. capacity records each host's whole bandwidth budget in request
// units.
func randomRatioInput(rng *rand.Rand) (in Input, capacity map[overlay.ID]int) {
	req := spec.Request{ID: "prop", UnitBytes: 1250}
	for l := 1 + rng.Intn(3); l > 0; l-- {
		chain := make([]string, 1+rng.Intn(4))
		for j := range chain {
			chain[j] = ratioServices[rng.Intn(len(ratioServices))]
		}
		req.Substreams = append(req.Substreams, spec.Substream{Services: chain, Rate: 2 + rng.Intn(8)})
	}
	in = baseInput(req)
	in.Catalog = services.Extended()
	capacity = make(map[overlay.ID]int)
	nHosts := 4 + rng.Intn(7)
	for h := 0; h < nHosts; h++ {
		units := 2 + rng.Intn(14)
		c := cand(h, float64(units)*10*kbit, float64(rng.Intn(20))/64)
		if rng.Intn(3) == 0 {
			c.Report.SpeedFactor = 0.5 + rng.Float64()
			c.Report.CPUFraction = 0.5 * rng.Float64()
		}
		capacity[c.Info.ID] = units
		for _, svc := range ratioServices {
			if rng.Intn(2) == 0 {
				in.Candidates[svc] = append(in.Candidates[svc], c)
			}
		}
	}
	return in, capacity
}

// checkCharges verifies that no component uses more than its host's whole
// bandwidth budget at its stage's charge: the per-(stage, host) bound the
// flow reduction guarantees, now in request units for every ratio.
func checkCharges(g *ExecutionGraph, catalog map[string]spec.ServiceDef, capacity map[overlay.ID]int) error {
	for _, p := range g.Placements {
		st := spec.Chain(nil, catalog, g.Request.Substreams[p.Substream].Services, g.Request.UnitBytes)[p.Stage]
		if use := p.Rate / st.Scale * st.Charge(); use > float64(capacity[p.Host.ID])+1e-9 {
			return fmt.Errorf("%s on %v uses %g of %d request units", p.Service, p.Host.ID, use, capacity[p.Host.ID])
		}
	}
	return nil
}

// TestEveryComposerHonoursRatios: every composer the menu names turns
// random ratio chains into graphs that pass CheckGraph and respect each
// host's budget, and so does an incremental re-composition around a
// random degraded host.
func TestEveryComposerHonoursRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	composed := make(map[string]int)
	deltas, splits := 0, 0
	for trial := 0; trial < 150; trial++ {
		in, capacity := randomRatioInput(rng)
		for _, name := range Names() {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			in.Rand = rand.New(rand.NewSource(int64(trial)))
			g, err := c.Compose(in)
			if errors.Is(err, ErrNoFeasiblePlacement) {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := CheckGraph(g, in.Catalog); err != nil {
				t.Fatalf("trial %d %s %v: %v", trial, name, in.Request.Substreams, err)
			}
			if err := checkCharges(g, in.Catalog, capacity); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			composed[name]++
			if len(g.Placements) > len(in.Request.Services()) && name == "mincost" {
				splits++
			}
			dc, ok := c.(DeltaComposer)
			if !ok {
				continue
			}
			bad := g.Placements[rng.Intn(len(g.Placements))].Host.ID
			din := in
			din.Request = g.Request
			dg, err := dc.ComposeDelta(din, g, map[overlay.ID]bool{bad: true}, nil)
			if errors.Is(err, ErrNoFeasiblePlacement) {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %s delta: %v", trial, name, err)
			}
			if err := CheckGraph(dg, in.Catalog); err != nil {
				t.Fatalf("trial %d %s delta: %v", trial, name, err)
			}
			for _, p := range dg.Placements {
				if p.Host.ID == bad {
					t.Fatalf("trial %d %s delta: kept %s on the degraded host", trial, name, p.Service)
				}
			}
			deltas++
		}
	}
	for _, name := range Names() {
		if composed[name] < 20 {
			t.Fatalf("%s composed only %d of 150 instances; the generator is too tight", name, composed[name])
		}
	}
	if deltas < 20 || splits < 10 {
		t.Fatalf("%d delta re-compositions and %d split compositions: the generator misses them", deltas, splits)
	}
	t.Logf("composed %v; %d deltas; %d mincost graphs split a stage", composed, deltas, splits)
}

// TestMinCostMatchesLPOracle: where no host offers two stages of one
// substream, the flow reduction with per-layer scaling solves the same
// program as the LP (eq. 1–4 with exact per-host budgets), so the two agree
// on feasibility and, when feasible, on the objective Σ input rate × drop
// ratio. Budgets are whole delivered units at each host's stage charge, and
// drop ratios are multiples of 1/16 while no chain has more than two
// upsamples, so the flow's integer arc costs are exact and the LP's
// optimum is integral.
func TestMinCostMatchesLPOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	catalog := services.Extended()
	feasible, infeasible := 0, 0
	for trial := 0; trial < 120; trial++ {
		chain := make([]string, 1+rng.Intn(4))
		ups := 0
		for j := range chain {
			for {
				chain[j] = ratioServices[rng.Intn(len(ratioServices))]
				if chain[j] != "upsample" || ups < 2 {
					break
				}
			}
			if chain[j] == "upsample" {
				ups++
			}
		}
		// Each stage gets a service name of its own, so a service repeated
		// in the chain still offers disjoint hosts.
		cat := make(map[string]spec.ServiceDef, len(chain))
		for j, svc := range chain {
			def := catalog[svc]
			def.Name = fmt.Sprintf("%s-%d", svc, j)
			cat[def.Name] = def
			chain[j] = def.Name
		}
		rate := 2 + rng.Intn(40)
		in := baseInput(req1(rate, chain...))
		in.Catalog = cat
		in.SourceReport = report(1e9, 0)
		in.DestReport = report(1e9, 0)
		drops := make(map[overlay.ID]float64)
		host := 0
		for j, st := range spec.Chain(nil, cat, chain, in.Request.UnitBytes) {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				// Charges reach 1/8 here, so whole multiples of 8 units
				// keep every request-unit budget whole.
				units := 8 * (1 + rng.Intn(3))
				c := cand(host, float64(units)*unitBits(in.Request)*st.Charge(), float64(rng.Intn(16))/16)
				host++
				drops[c.Info.ID] = c.Report.DropRatio
				in.Candidates[chain[j]] = append(in.Candidates[chain[j]], c)
			}
		}

		objective := func(g *ExecutionGraph) float64 {
			total := 0.0
			for _, p := range g.Placements {
				total += p.Rate * drops[p.Host.ID]
			}
			return total
		}
		flow, flowErr := (&MinCost{}).Compose(in)
		lp, lpErr := (LP{}).Compose(in)
		if (flowErr == nil) != (lpErr == nil) {
			t.Fatalf("trial %d %v at %d: flow %v, LP %v", trial, chain, rate, flowErr, lpErr)
		}
		if flowErr != nil {
			infeasible++
			continue
		}
		if err := CheckGraph(flow, in.Catalog); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := math.Abs(objective(flow) - objective(lp)); d > 1e-6*float64(rate) {
			t.Fatalf("trial %d %v at %d: flow objective %g, LP %g", trial, chain, rate, objective(flow), objective(lp))
		}
		feasible++
	}
	if feasible < 20 || infeasible < 10 {
		t.Fatalf("%d feasible and %d infeasible instances: the generator misses a side", feasible, infeasible)
	}
	t.Logf("%d feasible and %d infeasible instances agree", feasible, infeasible)
}

// TestShrinkHalvesDownstreamCharge: shrink halves the unit size, so the
// host running the next stage carries twice as many units on its link. A
// 100 kbit/s link fits 10 units/s of 1250-byte units, and so 20 units/s of
// the 625-byte units shrink emits, but not 21.
func TestShrinkHalvesDownstreamCharge(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		compose := func(rate int) (*ExecutionGraph, error) {
			in := baseInput(req1(rate, "shrink", "filter"))
			in.Catalog = services.Extended()
			in.Candidates["shrink"] = []Candidate{cand(1, 1000*kbit, 0)}
			in.Candidates["filter"] = []Candidate{cand(2, 100*kbit, 0)}
			return c.Compose(in)
		}
		g, err := compose(20)
		if err != nil {
			t.Fatalf("%s: 20 units/s refused: %v", name, err)
		}
		if err := CheckGraph(g, services.Extended()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range g.Placements {
			if p.Rate != 20 {
				t.Fatalf("%s: %s placed at %g units/s, want 20", name, p.Service, p.Rate)
			}
		}
		g, err = compose(21)
		switch {
		case name == "mincost-besteffort":
			if err != nil || g.Request.Substreams[0].Rate != 20 {
				t.Fatalf("%s: 21 units/s gave %v, want admission at 20", name, err)
			}
		case !errors.Is(err, ErrNoFeasiblePlacement):
			t.Fatalf("%s: 21 units/s gave %v, want ErrNoFeasiblePlacement", name, err)
		}
	}
}
