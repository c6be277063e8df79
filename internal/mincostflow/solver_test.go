package mincostflow

import (
	"math/rand"
	"testing"
)

// randomLayeredGraph builds a composition-shaped layered graph: src →
// stage₀ … stage_{q-1} → dst with capacity-bounded internal arcs, like
// core.MinCost produces. Returns the graph, endpoints and the internal
// arc IDs whose flows the assertions compare. A non-nil ref receives a
// mirror of every arc, for the reference solver.
func randomLayeredGraph(rng *rand.Rand, ref *refGraph) (*Graph, int, int, []ArcID) {
	q := 1 + rng.Intn(4)
	width := 1 + rng.Intn(6)
	g := NewGraph(2)
	add := func(u, v int, c, w int64) ArcID {
		if ref != nil {
			ref.addArc(u, v, c, w)
		}
		return g.AddArc(u, v, c, w)
	}
	src, dst := 0, 1
	srcOut := g.AddNode()
	dstIn := g.AddNode()
	add(src, srcOut, int64(10+rng.Intn(200)), 0)
	add(dstIn, dst, int64(10+rng.Intn(200)), 0)
	var internals []ArcID
	prevOuts := []int{srcOut}
	for j := 0; j < q; j++ {
		var outs []int
		for k := 0; k < width; k++ {
			in, out := g.AddNode(), g.AddNode()
			id := add(in, out, int64(rng.Intn(60)), int64(rng.Intn(1_000_000)))
			internals = append(internals, id)
			for _, p := range prevOuts {
				add(p, in, 1<<40, 0)
			}
			outs = append(outs, out)
		}
		prevOuts = outs
	}
	for _, p := range prevOuts {
		add(p, dstIn, 1<<40, 0)
	}
	if ref != nil {
		ref.n = g.NumNodes()
	}
	return g, src, dst, internals
}

// TestSolverPooledMatchesFresh is the solver-reuse property test: a pooled
// Solver run back-to-back over a stream of randomized graphs must return
// flows and costs identical to a fresh solver solving the same instance.
// Run under -race in CI.
func TestSolverPooledMatchesFresh(t *testing.T) {
	pooled := AcquireSolver()
	defer pooled.Release()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		g, src, dst, internals := randomLayeredGraph(rng, nil)
		want := int64(1 + rng.Intn(150))

		gotRes, err := pooled.MinCostFlow(g, src, dst, want)
		if err != nil {
			t.Fatalf("trial %d: pooled solve: %v", trial, err)
		}
		gotFlows := make([]int64, len(internals))
		for i, id := range internals {
			gotFlows[i] = g.Flow(id)
		}

		g.ResetFlows()
		var fresh Solver
		wantRes, err := fresh.MinCostFlow(g, src, dst, want)
		if err != nil {
			t.Fatalf("trial %d: fresh solve: %v", trial, err)
		}
		if gotRes != wantRes {
			t.Fatalf("trial %d: pooled %+v != fresh %+v", trial, gotRes, wantRes)
		}
		for i := range internals {
			if got := g.Flow(internals[i]); got != gotFlows[i] {
				t.Fatalf("trial %d arc %d: pooled flow %d != fresh flow %d",
					trial, i, gotFlows[i], got)
			}
		}
	}
	if !pooled.Reused() {
		t.Fatal("pooled solver never reported reuse")
	}
}

// TestGraphResetReusesArena pins the allocation contract: rebuilding and
// re-solving the same-shaped graph through Reset plus a held Solver must
// not allocate once warm.
func TestGraphResetReusesArena(t *testing.T) {
	sv := AcquireSolver()
	defer sv.Release()
	g := NewGraph(2)
	build := func() {
		g.Reset(2)
		srcOut, dstIn := g.AddNode(), g.AddNode()
		g.AddArc(0, srcOut, 100, 0)
		g.AddArc(dstIn, 1, 100, 0)
		for k := 0; k < 8; k++ {
			in, out := g.AddNode(), g.AddNode()
			g.AddArc(in, out, 20, int64(k*1000))
			g.AddArc(srcOut, in, 1<<40, 0)
			g.AddArc(out, dstIn, 1<<40, 0)
		}
	}
	// Warm the arenas.
	build()
	if _, err := sv.MinCostFlow(g, 0, 1, 100); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		build()
		if _, err := sv.MinCostFlow(g, 0, 1, 100); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("warm rebuild+solve allocates %.1f times per run, want 0", avg)
	}
}
