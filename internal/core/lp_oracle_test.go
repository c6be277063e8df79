package core

import (
	"fmt"
	"time"

	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/simplex"
	"rasc.dev/rasc/internal/spec"
)

// LP is the test oracle for the composers: the linear program the paper
// sketches for rate ratios ≠ 1 ("a linear programming method can be used
// to solve equations 1-4"). It solves each substream as a linear program
// whose variables are the per-component input rates and the per-edge
// flows, with exact per-node bandwidth constraints (equation 3) — unlike
// the flow reduction, which bounds each (stage, host) component
// separately. Only tests build it.
type LP struct {
	// UseCPU adds exact per-host CPU rows to the program (the
	// multi-resource extension): for every host, the summed CPU demand
	// of its components — rate × procPerUnit / speed — must fit the
	// host's available CPU fraction.
	UseCPU bool
}

// Name implements Composer.
func (l LP) Name() string {
	if l.UseCPU {
		return "lp-cpu"
	}
	return "lp"
}

// hostBudget tracks remaining directional bandwidth in bits/sec plus,
// when tracked, CPU fraction and speed.
type hostBudget struct {
	in, out  float64
	cpu      float64
	speed    float64
	cpuKnown bool
}

// Compose implements Composer.
func (lp LP) Compose(in Input) (*ExecutionGraph, error) {
	defer observeCompose(time.Now())
	defer observeStats(in.Stats, time.Now())
	if err := in.Request.Validate(); err != nil {
		return nil, err
	}
	g := &ExecutionGraph{
		Request:  in.Request,
		Composer: lp.Name(),
		Source:   in.Source,
		Dest:     in.Dest,
	}
	h := in.headroom()
	budgets := map[overlay.ID]*hostBudget{
		in.Source.ID: {in: h * in.SourceReport.AvailIn(), out: h * in.SourceReport.AvailOut()},
		in.Dest.ID:   {in: h * in.DestReport.AvailIn(), out: h * in.DestReport.AvailOut()},
	}
	for _, cands := range in.Candidates {
		for _, c := range cands {
			if _, ok := budgets[c.Info.ID]; !ok {
				b := &hostBudget{in: h * c.Report.AvailIn(), out: h * c.Report.AvailOut()}
				if lp.UseCPU && c.Report.SpeedFactor > 0 {
					b.cpuKnown = true
					b.speed = c.Report.SpeedFactor
					b.cpu = h * c.Report.AvailCPU()
				}
				budgets[c.Info.ID] = b
			}
		}
	}
	for l := range in.Request.Substreams {
		if err := composeSubstreamLP(in, g, budgets, l); err != nil {
			return nil, fmt.Errorf("substream %d: %w", l, err)
		}
	}
	if in.Stats != nil {
		in.Stats.Feasible = true
	}
	return g, nil
}

func composeSubstreamLP(in Input, g *ExecutionGraph, budgets map[overlay.ID]*hostBudget, l int) error {
	chain := stageServices(in.Request, l)
	q := len(chain)
	rate := float64(in.Request.Substreams[l].Rate)

	// Per-stage candidates.
	cands := make([][]Candidate, q)
	for j, svc := range chain {
		cands[j] = in.Candidates[svc]
		if len(cands[j]) == 0 {
			return fmt.Errorf("%w: no hosts offer %q", ErrNoFeasiblePlacement, svc)
		}
	}
	// Rate ratios and the unit sizes (bits) entering and leaving each
	// stage.
	inBits := make([]float64, q)
	outBits := make([]float64, q)
	ratios := make([]float64, q)
	for j, st := range spec.Chain(nil, in.Catalog, chain, in.Request.UnitBytes) {
		inBits[j], outBits[j], ratios[j] = 8*st.InBytes, 8*st.OutBytes, st.Ratio
	}

	// Variable layout: x[j][k] input rates, then y[j][k][k'] inter-stage
	// flows (j = 0..q-2).
	xIdx := make([][]int, q)
	nVars := 0
	for j := 0; j < q; j++ {
		xIdx[j] = make([]int, len(cands[j]))
		for k := range cands[j] {
			xIdx[j][k] = nVars
			nVars++
		}
	}
	yIdx := make([][][]int, q-1)
	for j := 0; j < q-1; j++ {
		yIdx[j] = make([][]int, len(cands[j]))
		for k := range cands[j] {
			yIdx[j][k] = make([]int, len(cands[j+1]))
			for k2 := range cands[j+1] {
				yIdx[j][k][k2] = nVars
				nVars++
			}
		}
	}

	// Objective: minimize expected drops = sum over components of
	// x[j][k] * dropRatio(host), with the same utilization tie-break as
	// the flow composer (three orders below one drop-window granule) so
	// zero-drop ties prefer idle hosts instead of stacking.
	obj := make([]float64, nVars)
	for j := 0; j < q; j++ {
		for k, c := range cands[j] {
			obj[xIdx[j][k]] = c.Report.DropRatio + c.Report.Utilization()*1e-3
		}
	}
	p := simplex.NewMinimize(obj)
	row := func() []float64 { return make([]float64, nVars) }

	// Output conservation: sum_{k'} y[j][k][k'] = R_j * x[j][k].
	for j := 0; j < q-1; j++ {
		for k := range cands[j] {
			r := row()
			for k2 := range cands[j+1] {
				r[yIdx[j][k][k2]] = 1
			}
			r[xIdx[j][k]] = -ratios[j]
			p.AddConstraint(r, simplex.EQ, 0)
		}
	}
	// Input conservation: x[j+1][k'] = sum_k y[j][k][k'].
	for j := 0; j < q-1; j++ {
		for k2 := range cands[j+1] {
			r := row()
			r[xIdx[j+1][k2]] = 1
			for k := range cands[j] {
				r[yIdx[j][k][k2]] = -1
			}
			p.AddConstraint(r, simplex.EQ, 0)
		}
	}
	// Delivery requirement: sum_k R_q * x[q-1][k] = rate.
	r := row()
	for k := range cands[q-1] {
		r[xIdx[q-1][k]] = ratios[q-1]
	}
	p.AddConstraint(r, simplex.EQ, rate)

	// Exact per-host bandwidth constraints (equation 3). Components of
	// this substream sharing a host share its budget.
	type hostUse struct {
		inRow, outRow, cpuRow []float64
	}
	uses := make(map[overlay.ID]*hostUse)
	use := func(id overlay.ID) *hostUse {
		u, ok := uses[id]
		if !ok {
			u = &hostUse{inRow: row(), outRow: row(), cpuRow: row()}
			uses[id] = u
		}
		return u
	}
	for j := 0; j < q; j++ {
		for k, c := range cands[j] {
			u := use(c.Info.ID)
			u.inRow[xIdx[j][k]] += inBits[j]
			u.outRow[xIdx[j][k]] += ratios[j] * outBits[j]
			if b := budgets[c.Info.ID]; b != nil && b.cpuKnown {
				// CPU seconds per delivered unit on this host.
				u.cpuRow[xIdx[j][k]] += procFor(in, chain[j]).Seconds() / b.speed
			}
		}
	}
	// Source sends the stage-0 input; destination receives the final
	// output.
	srcUse := use(in.Source.ID)
	for k := range cands[0] {
		srcUse.outRow[xIdx[0][k]] += inBits[0]
	}
	dstUse := use(in.Dest.ID)
	for k := range cands[q-1] {
		dstUse.inRow[xIdx[q-1][k]] += ratios[q-1] * outBits[q-1]
	}
	for id, u := range uses {
		b := budgets[id]
		if b == nil {
			b = &hostBudget{}
		}
		p.AddConstraint(u.inRow, simplex.LE, b.in)
		p.AddConstraint(u.outRow, simplex.LE, b.out)
		if b.cpuKnown {
			p.AddConstraint(u.cpuRow, simplex.LE, b.cpu)
		}
	}

	sol, err := p.Solve()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoFeasiblePlacement, err)
	}

	const tol = 1e-6
	// Read back placements.
	for j := 0; j < q; j++ {
		for k, c := range cands[j] {
			x := sol.X[xIdx[j][k]]
			if x <= tol {
				continue
			}
			g.Placements = append(g.Placements, Placement{
				Substream: l, Stage: j, Service: chain[j], Host: c.Info, Rate: x,
			})
			b := budgets[c.Info.ID]
			b.in -= x * inBits[j]
			b.out -= x * ratios[j] * outBits[j]
			if b.cpuKnown {
				b.cpu -= x * procFor(in, chain[j]).Seconds() / b.speed
				if b.cpu < 0 {
					b.cpu = 0
				}
			}
		}
	}
	// Edges: source → stage 0 (rate = x), inter-stage (y), last stage →
	// dest (R_q * x).
	var srcTotal float64
	for k, c := range cands[0] {
		x := sol.X[xIdx[0][k]]
		if x <= tol {
			continue
		}
		g.Edges = append(g.Edges, Edge{
			Substream: l, FromStage: -1, ToStage: 0, From: in.Source, To: c.Info, Rate: x,
		})
		srcTotal += x
	}
	for j := 0; j < q-1; j++ {
		for k, a := range cands[j] {
			for k2, b := range cands[j+1] {
				y := sol.X[yIdx[j][k][k2]]
				if y <= tol {
					continue
				}
				g.Edges = append(g.Edges, Edge{
					Substream: l, FromStage: j, ToStage: j + 1, From: a.Info, To: b.Info, Rate: y,
				})
			}
		}
	}
	var dstTotal float64
	for k, c := range cands[q-1] {
		out := ratios[q-1] * sol.X[xIdx[q-1][k]]
		if out <= tol {
			continue
		}
		g.Edges = append(g.Edges, Edge{
			Substream: l, FromStage: q - 1, ToStage: q, From: c.Info, To: in.Dest, Rate: out,
		})
		dstTotal += out
	}
	if dstTotal < rate-1e-3 {
		return fmt.Errorf("%w: LP delivered %g of %g", ErrNoFeasiblePlacement, dstTotal, rate)
	}
	srcBudget := budgets[in.Source.ID]
	srcBudget.out -= srcTotal * inBits[0]
	dstBudget := budgets[in.Dest.ID]
	dstBudget.in -= dstTotal * outBits[q-1]
	return nil
}
