package mincostflow

import (
	"math/rand"
	"testing"
)

func TestSimplePath(t *testing.T) {
	g := NewGraph(3)
	a := g.AddArc(0, 1, 10, 2)
	b := g.AddArc(1, 2, 5, 3)
	res, err := g.MinCostFlow(0, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 5 {
		t.Fatalf("Flow = %d, want 5 (bottleneck)", res.Flow)
	}
	if res.Cost != 5*2+5*3 {
		t.Fatalf("Cost = %d, want 25", res.Cost)
	}
	if g.Flow(a) != 5 || g.Flow(b) != 5 {
		t.Fatalf("arc flows = %d, %d", g.Flow(a), g.Flow(b))
	}
	if g.Residual(a) != 5 || g.Residual(b) != 0 {
		t.Fatalf("residuals = %d, %d", g.Residual(a), g.Residual(b))
	}
}

func TestPrefersCheaperPath(t *testing.T) {
	// Two parallel 0→1 routes: direct cheap (cap 3, cost 1) and via 2
	// expensive (cost 10). Request 5 units: 3 go cheap, 2 expensive.
	g := NewGraph(3)
	cheap := g.AddArc(0, 1, 3, 1)
	e1 := g.AddArc(0, 2, 10, 4)
	e2 := g.AddArc(2, 1, 10, 6)
	res, err := g.MinCostFlow(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 5 {
		t.Fatalf("Flow = %d", res.Flow)
	}
	if g.Flow(cheap) != 3 || g.Flow(e1) != 2 || g.Flow(e2) != 2 {
		t.Fatalf("split = %d / %d", g.Flow(cheap), g.Flow(e1))
	}
	if res.Cost != 3*1+2*10 {
		t.Fatalf("Cost = %d, want 23", res.Cost)
	}
}

func TestExactDemandStopsEarly(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 100, 1)
	res, err := g.MinCostFlow(0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 7 || res.Cost != 7 {
		t.Fatalf("res = %+v", res)
	}
}

func TestUnreachableSink(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 5, 1)
	res, err := g.MinCostFlow(0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 0 || res.Cost != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDegenerateRequests(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 5, 1)
	if res, _ := g.MinCostFlow(0, 0, 5); res.Flow != 0 {
		t.Fatal("s==t must carry no flow")
	}
	if res, _ := g.MinCostFlow(0, 1, 0); res.Flow != 0 {
		t.Fatal("want=0 must carry no flow")
	}
	if _, err := g.MinCostFlow(-1, 1, 5); err == nil {
		t.Fatal("bad endpoint must error")
	}
}

func TestNegativeCostArc(t *testing.T) {
	// 0→1 cost 5 or 0→2→1 with total cost -1: the negative route wins.
	g := NewGraph(3)
	exp := g.AddArc(0, 1, 10, 5)
	g.AddArc(0, 2, 10, 2)
	g.AddArc(2, 1, 10, -3)
	res, err := g.MinCostFlow(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 10 || res.Cost != -10 {
		t.Fatalf("res = %+v, want flow 10 cost -10", res)
	}
	if g.Flow(exp) != 0 {
		t.Fatal("expensive arc should be unused")
	}
}

func TestNegativeCycleDetected(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 5, 1)
	g.AddArc(1, 2, 5, -4)
	g.AddArc(2, 1, 5, 1) // 1→2→1 cycles at cost -3
	if _, err := g.MinCostFlow(0, 2, 1); err != ErrNegativeCycle {
		t.Fatalf("err = %v, want ErrNegativeCycle", err)
	}
}

func TestResetFlows(t *testing.T) {
	g := NewGraph(2)
	a := g.AddArc(0, 1, 5, 1)
	if _, err := g.MinCostFlow(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	g.ResetFlows()
	if g.Flow(a) != 0 || g.Residual(a) != 5 {
		t.Fatal("ResetFlows did not clear flow")
	}
	res, err := g.MinCostFlow(0, 1, 5)
	if err != nil || res.Flow != 5 {
		t.Fatalf("rerun after ResetFlows: %+v, %v", res, err)
	}
}

func TestResetArena(t *testing.T) {
	g := NewGraph(4)
	g.AddArc(0, 1, 5, 1)
	g.AddArc(1, 3, 5, 1)
	if _, err := g.MinCostFlow(0, 3, 5); err != nil {
		t.Fatal(err)
	}
	// Recycle into a smaller graph: old arcs must be gone.
	g.Reset(2)
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	a := g.AddArc(0, 1, 7, 2)
	res, err := g.MinCostFlow(0, 1, 10)
	if err != nil || res.Flow != 7 || res.Cost != 14 {
		t.Fatalf("recycled solve = %+v, %v", res, err)
	}
	if g.Flow(a) != 7 {
		t.Fatalf("flow on recycled arc = %d", g.Flow(a))
	}
	// Growing past the old arena must also start clean.
	g.Reset(3)
	if n := g.AddNode(); n != 3 {
		t.Fatalf("AddNode after Reset = %d, want 3", n)
	}
	g.AddArc(0, 2, 3, 1)
	g.AddArc(2, 3, 3, 1)
	res, err = g.MinCostFlow(0, 3, 5)
	if err != nil || res.Flow != 3 || res.Cost != 6 {
		t.Fatalf("grown solve = %+v, %v", res, err)
	}
}

func TestAddNode(t *testing.T) {
	g := NewGraph(1)
	v := g.AddNode()
	if v != 1 || g.NumNodes() != 2 {
		t.Fatalf("AddNode = %d, NumNodes = %d", v, g.NumNodes())
	}
	g.AddArc(0, v, 3, 1)
	res, _ := g.MinCostFlow(0, v, 10)
	if res.Flow != 3 {
		t.Fatalf("Flow = %d", res.Flow)
	}
}

// --- Reference implementation: Edmonds-Karp max-flow followed by
// Bellman-Ford negative-cycle cancelling. Used to cross-check SSP on random
// graphs.

type refGraph struct {
	n    int
	to   []int
	from []int
	cap  []int64
	cost []int64
	flow []int64
}

func newRef(n int) *refGraph { return &refGraph{n: n} }

func (r *refGraph) addArc(u, v int, c, w int64) {
	// forward
	r.from = append(r.from, u)
	r.to = append(r.to, v)
	r.cap = append(r.cap, c)
	r.cost = append(r.cost, w)
	r.flow = append(r.flow, 0)
	// backward
	r.from = append(r.from, v)
	r.to = append(r.to, u)
	r.cap = append(r.cap, 0)
	r.cost = append(r.cost, -w)
	r.flow = append(r.flow, 0)
}

func (r *refGraph) residual(e int) int64 { return r.cap[e] - r.flow[e] }

func (r *refGraph) push(e int, amt int64) {
	r.flow[e] += amt
	r.flow[e^1] -= amt
}

// maxFlowUpTo augments along BFS paths until flow reaches want or no path
// remains; returns the achieved flow.
func (r *refGraph) maxFlowUpTo(s, t int, want int64) int64 {
	var total int64
	for total < want {
		prevEdge := make([]int, r.n)
		for i := range prevEdge {
			prevEdge[i] = -1
		}
		prevEdge[s] = -2
		queue := []int{s}
		for len(queue) > 0 && prevEdge[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for e := 0; e < len(r.to); e++ {
				if r.from[e] == u && r.residual(e) > 0 && prevEdge[r.to[e]] == -1 {
					prevEdge[r.to[e]] = e
					queue = append(queue, r.to[e])
				}
			}
		}
		if prevEdge[t] == -1 {
			break
		}
		push := want - total
		for v := t; v != s; v = r.from[prevEdge[v]] {
			if res := r.residual(prevEdge[v]); res < push {
				push = res
			}
		}
		for v := t; v != s; v = r.from[prevEdge[v]] {
			r.push(prevEdge[v], push)
		}
		total += push
	}
	return total
}

// cancelNegativeCycles repeatedly finds a residual negative cycle with
// Bellman-Ford and saturates it.
func (r *refGraph) cancelNegativeCycles() {
	for {
		dist := make([]int64, r.n)
		prevEdge := make([]int, r.n)
		for i := range prevEdge {
			prevEdge[i] = -1
		}
		var cycleNode = -1
		for iter := 0; iter < r.n; iter++ {
			changed := false
			for e := 0; e < len(r.to); e++ {
				if r.residual(e) <= 0 {
					continue
				}
				if nd := dist[r.from[e]] + r.cost[e]; nd < dist[r.to[e]] {
					dist[r.to[e]] = nd
					prevEdge[r.to[e]] = e
					changed = true
					if iter == r.n-1 {
						cycleNode = r.to[e]
					}
				}
			}
			if !changed {
				return
			}
		}
		if cycleNode == -1 {
			return
		}
		// Walk back to land inside the cycle.
		v := cycleNode
		for i := 0; i < r.n; i++ {
			v = r.from[prevEdge[v]]
		}
		// Collect the cycle and its bottleneck.
		var cycle []int
		push := int64(1) << 60
		u := v
		for {
			e := prevEdge[u]
			cycle = append(cycle, e)
			if res := r.residual(e); res < push {
				push = res
			}
			u = r.from[e]
			if u == v {
				break
			}
		}
		for _, e := range cycle {
			r.push(e, push)
		}
	}
}

func (r *refGraph) totalCost() int64 {
	var c int64
	for e := 0; e < len(r.to); e += 2 {
		if r.flow[e] > 0 {
			c += r.flow[e] * r.cost[e]
		}
	}
	return c
}

// TestAgainstCycleCancelling cross-checks SSP against the independent
// reference on random graphs with non-negative costs.
func TestAgainstCycleCancelling(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6)
		arcs := rng.Intn(14)
		g := NewGraph(n)
		ref := newRef(n)
		for i := 0; i < arcs; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c, w := int64(rng.Intn(8)), int64(rng.Intn(12))
			g.AddArc(u, v, c, w)
			ref.addArc(u, v, c, w)
		}
		s, tt := 0, n-1
		want := int64(1 + rng.Intn(10))
		res, err := g.MinCostFlow(s, tt, want)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		refFlow := ref.maxFlowUpTo(s, tt, want)
		ref.cancelNegativeCycles()
		if res.Flow != refFlow {
			t.Fatalf("trial %d: flow %d vs reference %d", trial, res.Flow, refFlow)
		}
		if res.Cost != ref.totalCost() {
			t.Fatalf("trial %d: cost %d vs reference %d (flow %d)", trial, res.Cost, ref.totalCost(), res.Flow)
		}
	}
}

// TestAgainstCycleCancellingLayered cross-checks SSP against the same
// reference on the graph shape composition solves: randomLayeredGraph's
// 1–4 stages of 1–6 capacity-bounded instances with drop-scaled costs up
// to 10⁶ and unbounded inter-stage arcs.
func TestAgainstCycleCancellingLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		ref := &refGraph{}
		g, s, tt, _ := randomLayeredGraph(rng, ref)
		want := int64(1 + rng.Intn(150))
		res, err := g.MinCostFlow(s, tt, want)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		refFlow := ref.maxFlowUpTo(s, tt, want)
		ref.cancelNegativeCycles()
		if res.Flow != refFlow {
			t.Fatalf("trial %d: flow %d vs reference %d", trial, res.Flow, refFlow)
		}
		if res.Cost != ref.totalCost() {
			t.Fatalf("trial %d: cost %d vs reference %d (flow %d)", trial, res.Cost, ref.totalCost(), res.Flow)
		}
	}
}

// TestFlowConservationProperty verifies capacity and conservation on random
// instances.
func TestFlowConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(6)
		g := NewGraph(n)
		type arcRef struct {
			id   ArcID
			u, v int
			cap  int64
		}
		var arcs []arcRef
		for i := 0; i < 16; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int64(rng.Intn(9))
			arcs = append(arcs, arcRef{g.AddArc(u, v, c, int64(rng.Intn(5))), u, v, c})
		}
		res, err := g.MinCostFlow(0, n-1, int64(1+rng.Intn(12)))
		if err != nil {
			t.Fatal(err)
		}
		net := make([]int64, n)
		for _, a := range arcs {
			f := g.Flow(a.id)
			if f < 0 || f > a.cap {
				t.Fatalf("trial %d: flow %d outside [0,%d]", trial, f, a.cap)
			}
			net[a.u] -= f
			net[a.v] += f
		}
		for v := 1; v < n-1; v++ {
			if net[v] != 0 {
				t.Fatalf("trial %d: conservation violated at node %d (%d)", trial, v, net[v])
			}
		}
		if net[n-1] != res.Flow || net[0] != -res.Flow {
			t.Fatalf("trial %d: endpoint imbalance", trial)
		}
	}
}
