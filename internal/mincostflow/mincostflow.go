// Package mincostflow implements integer minimum-cost flow by successive
// shortest paths (SSP) with node potentials (Bellman-Ford initialization
// followed by Dijkstra), the well-studied reduction RASC builds its
// composition algorithm on. The paper cites Edmonds-Karp and Goldberg's
// scaling algorithms; for composition graphs of at most a few hundred
// nodes SSP is the appropriate choice, and it is the only solver here.
package mincostflow

import (
	"errors"
	"fmt"
	"math"
)

// ErrNegativeCycle is returned when the input graph contains a cycle of
// negative total cost reachable from the source.
var ErrNegativeCycle = errors.New("mincostflow: negative-cost cycle")

type arc struct {
	to   int
	rev  int // index of the reverse arc in adj[to]
	cap  int64
	cost int64
	flow int64
}

// ArcID identifies an arc added to a graph.
type ArcID struct{ node, idx int }

// Graph is a directed flow network with integer capacities and costs.
type Graph struct {
	adj [][]arc
}

// NewGraph creates a graph with n nodes numbered 0..n-1.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]arc, n)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumArcs returns the number of arcs added with AddArc (forward arcs;
// their residual twins are not counted).
func (g *Graph) NumArcs() int {
	n := 0
	for u := range g.adj {
		n += len(g.adj[u])
	}
	return n / 2
}

// AddNode appends a new node and returns its index. On a graph recycled
// with Reset the node reuses the arc storage of its previous life.
func (g *Graph) AddNode() int {
	if len(g.adj) < cap(g.adj) {
		g.adj = g.adj[:len(g.adj)+1] // slot already truncated by Reset
	} else {
		g.adj = append(g.adj, nil)
	}
	return len(g.adj) - 1
}

// AddArc inserts a directed arc with the given capacity and per-unit cost
// and returns its identifier. Capacity must be non-negative.
func (g *Graph) AddArc(from, to int, capacity, cost int64) ArcID {
	if capacity < 0 {
		panic(fmt.Sprintf("mincostflow: negative capacity %d", capacity))
	}
	if from < 0 || from >= len(g.adj) || to < 0 || to >= len(g.adj) {
		panic(fmt.Sprintf("mincostflow: arc %d->%d outside graph of %d nodes", from, to, len(g.adj)))
	}
	fwd := arc{to: to, rev: len(g.adj[to]), cap: capacity, cost: cost}
	bwd := arc{to: from, rev: len(g.adj[from]), cap: 0, cost: -cost}
	g.adj[from] = append(g.adj[from], fwd)
	g.adj[to] = append(g.adj[to], bwd)
	return ArcID{node: from, idx: len(g.adj[from]) - 1}
}

// Flow returns the flow currently routed on the arc.
func (g *Graph) Flow(id ArcID) int64 { return g.adj[id.node][id.idx].flow }

// Residual returns the arc's remaining capacity.
func (g *Graph) Residual(id ArcID) int64 {
	a := g.adj[id.node][id.idx]
	return a.cap - a.flow
}

// ZeroCapacity removes an arc from further consideration by setting its
// capacity to its current flow.
func (g *Graph) ZeroCapacity(id ArcID) {
	a := &g.adj[id.node][id.idx]
	a.cap = a.flow
}

// ResetFlows clears all flow, preserving nodes, arcs and capacities.
func (g *Graph) ResetFlows() {
	for u := range g.adj {
		for i := range g.adj[u] {
			g.adj[u][i].flow = 0
		}
	}
}

// Reset reinitialises the graph to n empty nodes, recycling the adjacency
// arena: per-node arc slices keep their backing arrays, so rebuilding a
// similarly-shaped graph (the per-substream composition pattern) allocates
// nothing once the arena is warm.
func (g *Graph) Reset(n int) {
	full := g.adj[:cap(g.adj)]
	for i := range full {
		full[i] = full[i][:0]
	}
	if cap(g.adj) < n {
		grown := make([][]arc, n)
		copy(grown, full)
		g.adj = grown
	} else {
		g.adj = g.adj[:n]
	}
}

// Result reports the outcome of a min-cost flow computation.
type Result struct {
	// Flow is the amount actually routed (≤ the requested amount).
	Flow int64
	// Cost is the total cost of the routed flow.
	Cost int64
	// Iterations counts the augmenting paths the solver routed.
	Iterations int
}

const inf = int64(math.MaxInt64) / 4

// errBadEndpoints builds the shared bad-endpoint error.
func errBadEndpoints(s, t int) error {
	return fmt.Errorf("mincostflow: bad endpoints %d,%d", s, t)
}

// MinCostFlow routes up to want units from s to t at minimum total cost,
// augmenting along successive shortest paths. It returns the achieved flow
// and its cost. Costs may be negative as long as the graph has no
// negative-cost cycle. It draws a pooled Solver for its scratch; callers
// solving many instances should hold a Solver themselves.
func (g *Graph) MinCostFlow(s, t int, want int64) (Result, error) {
	sv := AcquireSolver()
	defer sv.Release()
	return sv.MinCostFlow(g, s, t, want)
}

func (g *Graph) hasNegativeCost() bool {
	for u := range g.adj {
		for i := range g.adj[u] {
			a := g.adj[u][i]
			if a.cap > a.flow && a.cost < 0 {
				return true
			}
		}
	}
	return false
}

// bellmanFord computes shortest distances from s over residual arcs into
// pot. It returns false when a negative cycle is reachable.
func (g *Graph) bellmanFord(s int, pot []int64) bool {
	n := len(g.adj)
	for i := range pot {
		pot[i] = inf
	}
	pot[s] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if pot[u] == inf {
				continue
			}
			for i := range g.adj[u] {
				a := g.adj[u][i]
				if a.cap <= a.flow {
					continue
				}
				if nd := pot[u] + a.cost; nd < pot[a.to] {
					pot[a.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
		if iter == n-1 {
			return false
		}
	}
	return true
}

// pqItem is one Dijkstra heap entry (see Solver.dijkstra).
type pqItem struct {
	node int
	dist int64
}
