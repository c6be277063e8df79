package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rasc.dev/rasc/internal/mincostflow"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// costScale converts a drop ratio in [0,1] into an integer per-unit arc
// cost.
const costScale = 1_000_000

// utilTieScale converts link utilization in [0,1] into a tie-breaking arc
// cost three orders of magnitude below one drop-window granule (1/64 ≈
// 15625 scaled), so it only matters between hosts with equal drop ratios.
// Without it, the flow deterministically stacks every request onto the
// lexicographically-first idle hosts until their measured availability
// catches up, manufacturing hotspots the monitoring window is too slow to
// prevent.
const utilTieScale = 1_000

// MinCost is RASC's composition algorithm (§3.5): for each substream, a
// layered composition graph is built over the candidate hosts — one
// capacity-bounded, drop-cost internal arc per component instance — and a
// minimum-cost flow of r_req_l units is routed from the source to the
// destination by successive shortest paths. The flow may split a service
// across several instances on different nodes ("rate splitting").
// Capacities are decremented between substreams (Algorithm 1's update
// step).
//
// The flow counts delivered units. Layer j runs at s_j times the flow
// (spec.Stage.Scale), so its arcs' capacities are divided by the stage's
// charge and their costs multiplied by s_j, and placements and edges are
// read back at real rates: the reduction stays exact for rate and byte
// ratios ≠ 1.
type MinCost struct {
	// NoSplit restricts every stage to a single component instance (an
	// ablation knob: RASC without rate splitting). Implemented by
	// falling back to greedy-by-cost placement on the flow graph.
	NoSplit bool
	// UseCPU extends the capacity model beyond bandwidth with the CPU
	// resource (the paper's future work on multiple resource
	// constraints): a component's capacity on a host is the minimum of
	// the host's bandwidth budget and its remaining CPU at the
	// service's per-unit cost. Requires Input.Catalog and CPU-reporting
	// hosts; hosts without CPU data fall back to bandwidth-only.
	UseCPU bool
	// BestEffortFraction, when positive, admits a substream at a reduced
	// rate instead of rejecting it outright: if the achievable flow is
	// at least this fraction of the requirement, the substream's rate in
	// the returned graph is lowered to the achieved flow (the execution
	// graph's Request reflects the adjusted rates). 0 keeps the paper's
	// all-or-nothing admission.
	BestEffortFraction float64
}

// comp is one candidate component instance in a substream's flow graph.
type comp struct {
	host     overlay.NodeInfo
	slot     int // the host's capTracker slot
	drop     float64
	util     float64
	inNode   int
	outNode  int
	internal mincostflow.ArcID
	// residual is the zero-cost arc carrying this instance's surviving
	// prior flow during an incremental re-composition (ComposeDelta);
	// hasResidual gates it because the zero ArcID is a valid arc.
	residual    mincostflow.ArcID
	hasResidual bool
	// flow is the instance's solved flow, both arcs together.
	flow int64
}

// composeScratch carries the working state of one composition — the flow
// graph arena, the solver scratch, the capacity tracker, the stage and
// arc buffers and the placements and edges read back so far — and is
// recycled across compositions through a pool, so the composition hot
// path allocates only the graph it returns.
type composeScratch struct {
	graph  *mincostflow.Graph
	solver mincostflow.Solver
	caps   capTracker
	stages [][]comp
	// arcs holds a substream's inter-stage arcs in the order the build
	// loops add them (source → stage 0, stage j → j+1 by candidate
	// pairs, last stage → destination); the read-back walks the same
	// loops, so an arc's endpoints are its loop position.
	arcs       []mincostflow.ArcID
	chain      []spec.Stage
	placements []Placement
	edges      []Edge
}

var composeScratchPool = sync.Pool{New: func() interface{} {
	return &composeScratch{graph: mincostflow.NewGraph(0)}
}}

// warmScratch holds one scratch outside the pool. A pool hands out a cold
// scratch, whose graph arena must grow again, whenever the calling
// goroutine has moved to another P or two garbage collections have
// passed; a sequential caller that composes again takes this one instead.
var warmScratch atomic.Pointer[composeScratch]

// getScratch returns a scratch for one composition; putScratch returns it.
func getScratch() *composeScratch {
	if sc := warmScratch.Swap(nil); sc != nil {
		return sc
	}
	return composeScratchPool.Get().(*composeScratch)
}

func putScratch(sc *composeScratch) {
	if !warmScratch.CompareAndSwap(nil, sc) {
		composeScratchPool.Put(sc)
	}
}

// stagesFor returns the stage buffer resized to q empty stages, reusing
// the per-stage slices' backing arrays.
func (sc *composeScratch) stagesFor(q int) [][]comp {
	full := sc.stages[:cap(sc.stages)]
	for i := range full {
		full[i] = full[i][:0]
	}
	if cap(sc.stages) < q {
		grown := make([][]comp, q)
		copy(grown, full)
		sc.stages = grown
	} else {
		sc.stages = sc.stages[:q]
	}
	return sc.stages
}

// Name implements Composer.
func (m *MinCost) Name() string {
	switch {
	case m.NoSplit:
		return "mincost-nosplit"
	case m.UseCPU:
		return "mincost-cpu"
	case m.BestEffortFraction > 0:
		return "mincost-besteffort"
	}
	return "mincost"
}

// Compose implements Composer: a ComposeDelta with no prior graph and no
// degraded hosts.
func (m *MinCost) Compose(in Input) (*ExecutionGraph, error) {
	return m.ComposeDelta(in, nil, nil, nil)
}

// composeSubstream reduces substream l to a min-cost flow instance and
// reads the placements and edges back from the arc flows into the
// scratch. dc is nil for a full composition; an incremental
// re-composition (ComposeDelta) passes the surviving prior flow, which is
// pre-seeded as zero-cost residual arcs, and the degraded hosts, which
// are excluded from candidacy.
func (m *MinCost) composeSubstream(in Input, g *ExecutionGraph, sc *composeScratch, l int, dc *deltaCtx) error {
	caps := &sc.caps
	chain := stageServices(in.Request, l)
	rate := in.Request.Substreams[l].Rate
	q := len(chain)
	sc.chain = spec.Chain(sc.chain[:0], in.Catalog, chain, in.Request.UnitBytes)
	st := sc.chain

	// Gather candidates per stage; a host may appear at several stages.
	stages := sc.stagesFor(q)
	for j, svc := range chain {
		cands := in.Candidates[svc]
		if len(cands) == 0 {
			return fmt.Errorf("%w: no hosts offer %q", ErrNoFeasiblePlacement, svc)
		}
		for i := range cands {
			c := &cands[i]
			if dc != nil && dc.degraded[c.Info.ID] {
				continue
			}
			slot, _ := caps.slot(c.Info.ID) // every candidate is seeded
			stages[j] = append(stages[j], comp{host: c.Info, slot: slot, drop: c.Report.DropRatio, util: c.Report.Utilization()})
		}
		if len(stages[j]) == 0 {
			return fmt.Errorf("%w: every host offering %q is degraded", ErrNoFeasiblePlacement, svc)
		}
	}
	if st := in.Stats; st != nil {
		st.Substreams++
		for j := range stages {
			st.Candidates += len(stages[j])
		}
	}

	fg := sc.graph
	fg.Reset(2)
	const (
		src  = 0
		sink = 1
	)
	srcOut := fg.AddNode()
	dstIn := fg.AddNode()
	// Source uplink and destination downlink capacities. A re-composed
	// substream is already flowing, so its prior rate — invisible in the
	// endpoints' measured availability — is credited back as residual
	// capacity.
	srcCap, dstCap := caps.units(caps.src, st[0].In), caps.units(caps.dst, st[q-1].Out)
	if dc != nil {
		srcCap += dc.endpointResidual
		dstCap += dc.endpointResidual
	}
	fg.AddArc(src, srcOut, srcCap, 0)
	fg.AddArc(dstIn, sink, dstCap, 0)
	for j := range stages {
		proc := procFor(in, chain[j])
		for k := range stages[j] {
			c := &stages[j][k]
			c.inNode = fg.AddNode()
			c.outNode = fg.AddNode()
			capUnits := caps.capacityFor(c.slot, proc, st[j])
			cost := int64(c.drop*costScale) + int64(c.util*utilTieScale)
			cost = int64(math.Round(float64(cost) * st[j].Scale))
			c.internal = fg.AddArc(c.inNode, c.outNode, capUnits, cost)
			if dc != nil && j < len(dc.residual) {
				// Surviving prior placement: its current flow rides a
				// zero-cost parallel arc, so keeping it costs nothing and
				// the solver only re-routes the degraded share.
				if r := int64(math.Round(dc.residual[j][c.host.ID] / st[j].Scale)); r > 0 {
					c.residual = fg.AddArc(c.inNode, c.outNode, r, 0)
					c.hasResidual = true
				}
			}
		}
	}
	const unbounded = int64(1) << 40
	// The inter-stage arcs, C₀ + Σⱼ CⱼCⱼ₊₁ + C_q₋₁ of them; their order
	// decides the solver's tie-breaking, so it is fixed: source to stage
	// 0, then stage j to stage j+1 by (k, k2), then last stage to
	// destination.
	arcs := sc.arcs[:0]
	for k := range stages[0] {
		arcs = append(arcs, fg.AddArc(srcOut, stages[0][k].inNode, unbounded, 0))
	}
	for j := 0; j+1 < q; j++ {
		for k := range stages[j] {
			for k2 := range stages[j+1] {
				arcs = append(arcs, fg.AddArc(stages[j][k].outNode, stages[j+1][k2].inNode, unbounded, 0))
			}
		}
	}
	for k := range stages[q-1] {
		arcs = append(arcs, fg.AddArc(stages[q-1][k].outNode, dstIn, unbounded, 0))
	}
	sc.arcs = arcs

	if m.NoSplit {
		// Ablation: keep only the cheapest feasible host per stage
		// (ties to the lower ID) so the flow cannot split.
		for j := range stages {
			best := -1
			for k := range stages[j] {
				if fg.Residual(stages[j][k].internal) < int64(rate) {
					continue
				}
				if best == -1 ||
					stages[j][k].drop < stages[j][best].drop ||
					(stages[j][k].drop == stages[j][best].drop &&
						stages[j][k].host.ID.Cmp(stages[j][best].host.ID) < 0) {
					best = k
				}
			}
			if best == -1 {
				return fmt.Errorf("%w: no single host can carry stage %d", ErrNoFeasiblePlacement, j)
			}
			for k := range stages[j] {
				if k != best {
					fg.ZeroCapacity(stages[j][k].internal)
				}
			}
		}
	}

	res, err := sc.solver.MinCostFlow(fg, src, sink, int64(rate))
	if st := in.Stats; st != nil {
		st.Nodes += fg.NumNodes()
		st.Arcs += fg.NumArcs()
		st.Iterations += res.Iterations
		st.Flow += res.Flow
	}
	if err != nil {
		return err
	}
	if res.Flow < int64(rate) {
		if m.BestEffortFraction <= 0 || float64(res.Flow) < m.BestEffortFraction*float64(rate) {
			return fmt.Errorf("%w: achieved %d of %d units/sec", ErrNoFeasiblePlacement, res.Flow, rate)
		}
		// Best-effort admission: lower the substream's requirement to
		// the achievable rate. The graph's Request carries the adjusted
		// rate so sources, sinks and CheckGraph all agree.
		rate = int(res.Flow)
		g.Request.Substreams[l].Rate = rate
	}

	// Read back placements and edges at real rates (a layer runs at s_j
	// times the flow); update capacities. Residual flow is capacity the
	// instance already holds, so only the newly routed share is deducted
	// from the measured availability budget.
	for j := range stages {
		proc := procFor(in, chain[j])
		for k := range stages[j] {
			c := &stages[j][k]
			fresh := fg.Flow(c.internal)
			c.flow = fresh
			if c.hasResidual {
				c.flow += fg.Flow(c.residual)
			}
			if c.flow <= 0 {
				continue
			}
			sc.placements = append(sc.placements, Placement{
				Substream: l, Stage: j, Service: chain[j],
				Host: c.host, Rate: float64(c.flow) * st[j].Scale,
			})
			caps.consume(c.slot, float64(fresh), st[j].Charge())
			caps.consumeCPU(c.slot, float64(fresh)*st[j].Scale, proc)
		}
	}
	// Edges, walking the arcs in build order. Flow is conserved at every
	// instance, so an instance without flow has none on its out-arcs
	// either, and its block of arcs is skipped.
	edge := func(from, to int, a, b overlay.NodeInfo, f int64) {
		scale := 1.0 // the sink's
		if to < q {
			scale = st[to].Scale
		}
		sc.edges = append(sc.edges, Edge{
			Substream: l, FromStage: from, ToStage: to,
			From: a, To: b, Rate: float64(f) * scale,
		})
	}
	i := 0
	for k := range stages[0] {
		if f := fg.Flow(arcs[i]); f > 0 {
			edge(-1, 0, in.Source, stages[0][k].host, f)
		}
		i++
	}
	for j := 0; j+1 < q; j++ {
		for k := range stages[j] {
			a, next := &stages[j][k], stages[j+1]
			if a.flow <= 0 {
				i += len(next)
				continue
			}
			for k2 := range next {
				if f := fg.Flow(arcs[i]); f > 0 {
					edge(j, j+1, a.host, next[k2].host, f)
				}
				i++
			}
		}
	}
	for k := range stages[q-1] {
		if f := fg.Flow(arcs[i]); f > 0 {
			edge(q-1, q, stages[q-1][k].host, in.Dest, f)
		}
		i++
	}
	caps.consume(caps.src, float64(rate), st[0].In)
	caps.consume(caps.dst, float64(rate), st[q-1].Out)
	return nil
}
