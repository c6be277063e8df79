package mincostflow

import "sync"

// Solver carries the scratch state a successive-shortest-path computation
// needs: distance, potential and parent arrays plus the Dijkstra heap.
// Reusing one Solver across computations (or drawing one from the package
// pool with AcquireSolver) eliminates the per-solve allocations that
// dominate composition cost on small graphs.
//
// A Solver is not safe for concurrent use; pool it or keep it
// goroutine-local. The zero value is ready to use.
type Solver struct {
	// Successive-shortest-path scratch.
	pot      []int64
	dist     []int64
	prevNode []int
	prevArc  []int
	q        []pqItem

	warm bool // a previous computation ran with this scratch
}

// solverPool recycles Solvers across compositions.
var solverPool = sync.Pool{New: func() interface{} { return new(Solver) }}

// AcquireSolver returns a Solver from the package pool; callers should
// Release it when the computation (and every read of its results) is done.
func AcquireSolver() *Solver { return solverPool.Get().(*Solver) }

// Release returns the solver to the package pool.
func (s *Solver) Release() { solverPool.Put(s) }

// Reused reports whether this solver has run at least one computation
// before — i.e. acquiring it hit warm pooled scratch rather than a fresh
// allocation.
func (s *Solver) Reused() bool { return s.warm }

// grow ensures the SSP scratch covers n nodes.
func (s *Solver) grow(n int) {
	if cap(s.pot) < n {
		s.pot = make([]int64, n)
		s.dist = make([]int64, n)
		s.prevNode = make([]int, n)
		s.prevArc = make([]int, n)
	}
	s.pot = s.pot[:n]
	s.dist = s.dist[:n]
	s.prevNode = s.prevNode[:n]
	s.prevArc = s.prevArc[:n]
}

// MinCostFlow routes up to want units from src to dst on g at minimum
// total cost using successive shortest paths, reusing the solver's
// scratch. It is semantically identical to Graph.MinCostFlow.
func (s *Solver) MinCostFlow(g *Graph, src, dst int, want int64) (Result, error) {
	defer func() { s.warm = true }()
	n := len(g.adj)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Result{}, errBadEndpoints(src, dst)
	}
	if src == dst || want <= 0 {
		return Result{}, nil
	}
	s.grow(n)
	for i := range s.pot {
		s.pot[i] = 0
	}
	if g.hasNegativeCost() {
		if !g.bellmanFord(src, s.pot) {
			return Result{}, ErrNegativeCycle
		}
	}
	var res Result
	for res.Flow < want {
		if !s.dijkstra(g, src, dst) {
			break // dst unreachable in the residual graph
		}
		// Update potentials with the new shortest distances.
		for v := 0; v < n; v++ {
			if s.dist[v] < inf {
				s.pot[v] += s.dist[v]
			}
		}
		// Find the bottleneck along the path.
		push := want - res.Flow
		for v := dst; v != src; v = s.prevNode[v] {
			a := &g.adj[s.prevNode[v]][s.prevArc[v]]
			if r := a.cap - a.flow; r < push {
				push = r
			}
		}
		// Apply the augmentation.
		for v := dst; v != src; v = s.prevNode[v] {
			a := &g.adj[s.prevNode[v]][s.prevArc[v]]
			a.flow += push
			g.adj[v][a.rev].flow -= push
			res.Cost += push * a.cost
		}
		res.Flow += push
		res.Iterations++
	}
	return res, nil
}

// dijkstra computes reduced-cost shortest paths from src into the solver's
// dist/prevNode/prevArc scratch; it returns true if dst is reachable. The
// heap is maintained inline (no container/heap interface boxing) so a
// solve performs zero allocations once the scratch is warm.
func (s *Solver) dijkstra(g *Graph, src, dst int) bool {
	n := len(g.adj)
	for i := 0; i < n; i++ {
		s.dist[i] = inf
		s.prevNode[i] = -1
	}
	s.dist[src] = 0
	s.q = s.q[:0]
	s.heapPush(pqItem{node: src, dist: 0})
	for len(s.q) > 0 {
		it := s.heapPop()
		if it.dist > s.dist[it.node] {
			continue
		}
		u := it.node
		for i := range g.adj[u] {
			a := &g.adj[u][i]
			if a.cap <= a.flow || s.pot[a.to] >= inf || s.pot[u] >= inf {
				continue
			}
			rc := a.cost + s.pot[u] - s.pot[a.to]
			if rc < 0 {
				rc = 0 // guard against rounding in caller-scaled costs
			}
			if nd := s.dist[u] + rc; nd < s.dist[a.to] {
				s.dist[a.to] = nd
				s.prevNode[a.to] = u
				s.prevArc[a.to] = i
				s.heapPush(pqItem{node: a.to, dist: nd})
			}
		}
	}
	return s.dist[dst] < inf
}

func (s *Solver) heapPush(it pqItem) {
	s.q = append(s.q, it)
	i := len(s.q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.q[parent].dist <= s.q[i].dist {
			break
		}
		s.q[parent], s.q[i] = s.q[i], s.q[parent]
		i = parent
	}
}

func (s *Solver) heapPop() pqItem {
	top := s.q[0]
	last := len(s.q) - 1
	s.q[0] = s.q[last]
	s.q = s.q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && s.q[l].dist < s.q[small].dist {
			small = l
		}
		if r < last && s.q[r].dist < s.q[small].dist {
			small = r
		}
		if small == i {
			break
		}
		s.q[small], s.q[i] = s.q[i], s.q[small]
		i = small
	}
	return top
}
