package core

import (
	"fmt"
	"slices"
	"time"

	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// DeltaComposer is implemented by composers that support incremental
// re-composition: rebuilding only the affected substreams of a running
// application while keeping the surviving placements in place.
type DeltaComposer interface {
	Composer
	ComposeDelta(in Input, prev *ExecutionGraph, degraded map[overlay.ID]bool, affected []int) (*ExecutionGraph, error)
}

// deltaCtx carries one substream's incremental re-composition state into
// composeSubstream: the hosts to route away from and the surviving prior
// flow, pre-seeded as zero-cost residual capacity.
type deltaCtx struct {
	degraded map[overlay.ID]bool
	// residual[stage] maps host ID to the prior input rate the host's
	// component instance at that stage still carries.
	residual []map[overlay.ID]float64
	// endpointResidual is the substream's prior rate: the source is
	// already transmitting it and the destination already receiving it,
	// so it is credited back on top of the measured availability.
	endpointResidual int64
}

// ComposeDelta is MinCost's one composition routine; Compose calls it
// with no prior graph and no degraded hosts. Only the substreams listed
// in affected (nil = all) are re-solved; with a prev, the others are
// copied verbatim from it with their capacity use accounted. For each
// re-solved substream, prev's placements on non-degraded hosts are
// pre-seeded into the flow graph as zero-cost residual arcs — keeping an
// existing instance costs nothing, so the solver shifts only the share
// that rode through the degraded hosts — and degraded hosts are excluded
// from candidacy outright.
//
// in.Request must carry the application's live rates (prev.Request for a
// running graph, including any best-effort reduction).
//
// It returns ErrNoFeasiblePlacement (wrapped) when the surviving hosts
// cannot absorb the displaced rate; callers then fall back to a full
// teardown-and-recompose.
func (m *MinCost) ComposeDelta(in Input, prev *ExecutionGraph, degraded map[overlay.ID]bool, affected []int) (*ExecutionGraph, error) {
	defer observeCompose(time.Now())
	defer observeStats(in.Stats, time.Now())
	if err := in.Request.Validate(); err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	if sc.solver.Reused() {
		telSolverReuse.Inc()
	}
	g := &ExecutionGraph{
		Request:  in.Request,
		Composer: m.Name(),
		Source:   in.Source,
		Dest:     in.Dest,
	}
	// Best-effort admission may lower substream rates in the returned
	// graph; copy the slice so the caller's request stays untouched.
	g.Request.Substreams = append([]spec.Substream(nil), in.Request.Substreams...)
	sc.caps.seedInput(in, m.UseCPU)
	sc.placements, sc.edges = sc.placements[:0], sc.edges[:0]
	// Without a prev there is nothing to copy, so affected only matters
	// alongside one; a plain compose builds no set and no delta context.
	var affectedSet map[int]bool
	if prev != nil && affected != nil {
		affectedSet = make(map[int]bool, len(affected))
		for _, l := range affected {
			affectedSet[l] = true
		}
	}
	for l := range in.Request.Substreams {
		if affectedSet != nil && !affectedSet[l] {
			m.copySubstream(in, sc, prev, l)
			if in.Stats != nil {
				in.Stats.Copied++
			}
			continue
		}
		var dc *deltaCtx
		if prev != nil || len(degraded) > 0 {
			dc = deltaFor(prev, degraded, l)
		}
		if err := m.composeSubstream(in, g, sc, l, dc); err != nil {
			return nil, fmt.Errorf("substream %d: %w", l, err)
		}
	}
	// The output is the one allocation per slice the composition makes.
	g.Placements, g.Edges = slices.Clone(sc.placements), slices.Clone(sc.edges)
	if in.Stats != nil {
		in.Stats.Feasible = true
	}
	return g, nil
}

// copySubstream carries an unaffected substream's placements and edges
// over verbatim, deducting their capacity as composeSubstream charges it
// so the re-solved substreams cannot double-book the same hosts. A prior
// host that is no longer a candidate has no capacity left to deduct.
func (m *MinCost) copySubstream(in Input, sc *composeScratch, prev *ExecutionGraph, l int) {
	caps := &sc.caps
	ss := in.Request.Substreams[l]
	sc.chain = spec.Chain(sc.chain[:0], in.Catalog, ss.Services, in.Request.UnitBytes)
	st := sc.chain
	for _, p := range prev.Placements {
		if p.Substream != l {
			continue
		}
		sc.placements = append(sc.placements, p)
		if s, ok := caps.slot(p.Host.ID); ok {
			caps.consume(s, p.Rate/st[p.Stage].Scale, st[p.Stage].Charge())
			caps.consumeCPU(s, p.Rate, procFor(in, p.Service))
		}
	}
	for _, e := range prev.Edges {
		if e.Substream == l {
			sc.edges = append(sc.edges, e)
		}
	}
	caps.consume(caps.src, float64(ss.Rate), st[0].In)
	caps.consume(caps.dst, float64(ss.Rate), st[len(st)-1].Out)
}

// deltaFor builds the residual context for re-solving substream l against
// prev. A nil prev yields a context with no residual flow — candidacy
// filtering on degraded hosts still applies.
func deltaFor(prev *ExecutionGraph, degraded map[overlay.ID]bool, l int) *deltaCtx {
	dc := &deltaCtx{degraded: degraded}
	if prev == nil || l >= len(prev.Request.Substreams) {
		return dc
	}
	q := len(prev.Request.Substreams[l].Services)
	dc.residual = make([]map[overlay.ID]float64, q)
	for _, p := range prev.Placements {
		if p.Substream != l || p.Stage < 0 || p.Stage >= q || degraded[p.Host.ID] {
			continue
		}
		if dc.residual[p.Stage] == nil {
			dc.residual[p.Stage] = make(map[overlay.ID]float64)
		}
		dc.residual[p.Stage][p.Host.ID] += p.Rate
	}
	dc.endpointResidual = int64(prev.Request.Substreams[l].Rate)
	return dc
}
