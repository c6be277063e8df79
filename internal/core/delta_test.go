package core

import (
	"errors"
	"reflect"
	"testing"

	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// TestComposeDeltaEmptyResidualBitIdentical pins the fidelity contract of
// the incremental path: with no prior graph, no degraded hosts and every
// substream affected, ComposeDelta must produce output bit-identical to
// Compose — across shapes, seeds and scratch-pool reuse.
func TestComposeDeltaEmptyResidualBitIdentical(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		for _, hosts := range []int{3, 8, 16} {
			in := wideInput(hosts, 10+seed, "filter", "transcode", "encrypt")
			full, err := (&MinCost{}).Compose(in)
			if err != nil {
				t.Fatalf("seed %d hosts %d: %v", seed, hosts, err)
			}
			delta, err := (&MinCost{}).ComposeDelta(in, nil, nil, nil)
			if err != nil {
				t.Fatalf("seed %d hosts %d: delta: %v", seed, hosts, err)
			}
			if !reflect.DeepEqual(full, delta) {
				t.Fatalf("seed %d hosts %d: empty-residual ComposeDelta diverged:\n%+v\n%+v",
					seed, hosts, full, delta)
			}
		}
	}
}

// deltaScenario composes a two-host split and returns the input and graph:
// each host alone is too small for the rate, so the flow splits across
// both.
func deltaScenario(t *testing.T) (Input, *ExecutionGraph) {
	t.Helper()
	in := baseInput(req1(10, "filter"))
	// 60 + 60 kbps for a 100 kbps substream: the composer must split.
	in.Candidates["filter"] = []Candidate{cand(1, 60*kbit, 0), cand(2, 60*kbit, 0)}
	g, err := (&MinCost{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Placements) != 2 {
		t.Fatalf("scenario wants a 2-way split, got %d placements", len(g.Placements))
	}
	return in, g
}

// TestComposeDeltaShiftsAwayFromDegraded kills one of the two split hosts
// and checks the delta solve routes the displaced share to a replacement
// while the surviving placement keeps (at least) its prior flow at zero
// cost — even though the survivor's *measured* availability alone could
// not carry its residual plus the displaced share.
func TestComposeDeltaShiftsAwayFromDegraded(t *testing.T) {
	in, prev := deltaScenario(t)
	// Post-failure monitoring state: the survivor (host 1) now carries its
	// share, so its measured availability shrank; host 3 appears fresh.
	dead := testHost(2).ID
	in.Candidates["filter"] = []Candidate{
		cand(1, 10*kbit, 0), // survivor: mostly used by its current flow
		cand(2, 60*kbit, 0), // degraded — must be excluded
		cand(3, 50*kbit, 0), // replacement capacity
	}
	degraded := map[overlay.ID]bool{dead: true}
	g, err := (&MinCost{}).ComposeDelta(in, prev, degraded, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	var survivorPrior float64
	for _, p := range prev.Placements {
		if p.Host.ID == testHost(1).ID {
			survivorPrior = p.Rate
		}
	}
	var survivorNow, replacementNow float64
	for _, p := range g.Placements {
		switch p.Host.ID {
		case dead:
			t.Fatalf("degraded host still placed: %+v", p)
		case testHost(1).ID:
			survivorNow = p.Rate
		case testHost(3).ID:
			replacementNow = p.Rate
		}
	}
	if survivorNow < survivorPrior {
		t.Fatalf("survivor flow fell from %g to %g; residual seeding should keep it", survivorPrior, survivorNow)
	}
	if replacementNow <= 0 {
		t.Fatal("displaced share never reached the replacement host")
	}
}

// TestComposeDeltaInfeasibleFallsOut verifies the incremental solve
// reports ErrNoFeasiblePlacement (the full-recompose fallback trigger)
// when the surviving hosts cannot absorb the displaced rate.
func TestComposeDeltaInfeasibleFallsOut(t *testing.T) {
	in, prev := deltaScenario(t)
	dead := testHost(2).ID
	in.Candidates["filter"] = []Candidate{
		cand(1, 10*kbit, 0), // survivor alone cannot absorb the other half
		cand(2, 60*kbit, 0),
	}
	_, err := (&MinCost{}).ComposeDelta(in, prev, map[overlay.ID]bool{dead: true}, []int{0})
	if !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want ErrNoFeasiblePlacement", err)
	}
}

// TestComposeDeltaAllProvidersDegraded covers the edge where the degraded
// set swallows a whole stage.
func TestComposeDeltaAllProvidersDegraded(t *testing.T) {
	in, prev := deltaScenario(t)
	degraded := map[overlay.ID]bool{testHost(1).ID: true, testHost(2).ID: true}
	_, err := (&MinCost{}).ComposeDelta(in, prev, degraded, []int{0})
	if !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want ErrNoFeasiblePlacement", err)
	}
}

// TestComposeDeltaCopiesUnaffectedSubstreams re-solves only substream 1 of
// a two-substream request and checks substream 0 comes back verbatim, with
// its capacity use still accounted against the shared hosts.
func TestComposeDeltaCopiesUnaffectedSubstreams(t *testing.T) {
	req := spec.Request{
		ID:        "r2",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{"filter"}, Rate: 6},
			{Services: []string{"filter"}, Rate: 6},
		},
	}
	in := baseInput(req)
	in.Candidates["filter"] = []Candidate{cand(1, 120*kbit, 0), cand(2, 120*kbit, 0)}
	prev, err := (&MinCost{}).Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	g, err := (&MinCost{}).ComposeDelta(in, prev, nil, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(g, nil); err != nil {
		t.Fatal(err)
	}
	filter := func(ps []Placement, l int) []Placement {
		var out []Placement
		for _, p := range ps {
			if p.Substream == l {
				out = append(out, p)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(prev.Placements, 0), filter(g.Placements, 0)) {
		t.Fatalf("unaffected substream 0 changed:\nprev %+v\ndelta %+v",
			filter(prev.Placements, 0), filter(g.Placements, 0))
	}
}
