package core

import (
	"fmt"
	"sort"
	"time"

	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// Random is the paper's first baseline: each service of each substream is
// placed, whole, on a uniformly random host that still has the bandwidth
// capacity to carry the substream's full rate. It never splits a service
// across instances.
type Random struct{}

// Name implements Composer.
func (Random) Name() string { return "random" }

// Compose implements Composer.
func (Random) Compose(in Input) (*ExecutionGraph, error) {
	defer observeCompose(time.Now())
	defer observeStats(in.Stats, time.Now())
	if in.Rand == nil {
		return nil, fmt.Errorf("core: Random composer needs Input.Rand")
	}
	return composeSingleInstance(in, "random", func(stage int, service string, feasible []Candidate) Candidate {
		return feasible[in.Rand.Intn(len(feasible))]
	})
}

// Greedy is the paper's second baseline: it iterates through the services
// and places each on the feasible node with the smallest drop ratio. The
// drop statistics are read once per composition, so the algorithm keeps
// stacking components onto the currently-best nodes until their capacity
// is exhausted — exactly the failure mode §4.2 describes.
type Greedy struct{}

// Name implements Composer.
func (Greedy) Name() string { return "greedy" }

// Compose implements Composer.
func (Greedy) Compose(in Input) (*ExecutionGraph, error) {
	defer observeCompose(time.Now())
	defer observeStats(in.Stats, time.Now())
	return composeSingleInstance(in, "greedy", func(stage int, service string, feasible []Candidate) Candidate {
		best := feasible[0]
		for _, c := range feasible[1:] {
			if c.Report.DropRatio < best.Report.DropRatio ||
				(c.Report.DropRatio == best.Report.DropRatio && c.Info.ID.Cmp(best.Info.ID) < 0) {
				best = c
			}
		}
		return best
	})
}

// composeSingleInstance implements the shared skeleton of both baselines:
// one component per service at the substream's full rate, scaled per stage
// and capacity-checked as MinCost charges it, host capacities decremented
// as components are placed.
func composeSingleInstance(in Input, name string, pick func(stage int, service string, feasible []Candidate) Candidate) (*ExecutionGraph, error) {
	if err := in.Request.Validate(); err != nil {
		return nil, err
	}
	g := &ExecutionGraph{
		Request:  in.Request,
		Composer: name,
		Source:   in.Source,
		Dest:     in.Dest,
	}
	var caps capTracker
	caps.seedInput(in, false)
	var st []spec.Stage
	for l, ss := range in.Request.Substreams {
		rate := int64(ss.Rate)
		q := len(ss.Services)
		st = spec.Chain(st[:0], in.Catalog, ss.Services, in.Request.UnitBytes)
		if caps.units(caps.src, st[0].In) < rate {
			return nil, fmt.Errorf("%w: source uplink exhausted", ErrNoFeasiblePlacement)
		}
		if caps.units(caps.dst, st[q-1].Out) < rate {
			return nil, fmt.Errorf("%w: destination downlink exhausted", ErrNoFeasiblePlacement)
		}
		prev := in.Source
		prevStage := -1
		for j, svc := range ss.Services {
			cands := in.Candidates[svc]
			// Deterministic candidate order before filtering.
			ordered := make([]Candidate, len(cands))
			copy(ordered, cands)
			sort.Slice(ordered, func(a, b int) bool {
				return ordered[a].Info.ID.Cmp(ordered[b].Info.ID) < 0
			})
			var feasible []Candidate
			for _, c := range ordered {
				if s, _ := caps.slot(c.Info.ID); caps.units(s, st[j].Charge()) >= rate {
					feasible = append(feasible, c)
				}
			}
			if len(feasible) == 0 {
				return nil, fmt.Errorf("%w: no host with capacity %d units/sec for %q (substream %d)",
					ErrNoFeasiblePlacement, rate, svc, l)
			}
			chosen := pick(j, svc, feasible)
			g.Placements = append(g.Placements, Placement{
				Substream: l, Stage: j, Service: svc, Host: chosen.Info, Rate: float64(rate) * st[j].Scale,
			})
			g.Edges = append(g.Edges, Edge{
				Substream: l, FromStage: prevStage, ToStage: j,
				From: prev, To: chosen.Info, Rate: float64(rate) * st[j].Scale,
			})
			s, _ := caps.slot(chosen.Info.ID)
			caps.consume(s, float64(rate), st[j].Charge())
			prev = chosen.Info
			prevStage = j
		}
		g.Edges = append(g.Edges, Edge{
			Substream: l, FromStage: prevStage, ToStage: q,
			From: prev, To: in.Dest, Rate: float64(rate),
		})
		caps.consume(caps.src, float64(rate), st[0].In)
		caps.consume(caps.dst, float64(rate), st[q-1].Out)
	}
	if in.Stats != nil {
		in.Stats.Feasible = true
	}
	return g, nil
}

// hostSet returns the distinct hosts used by an execution graph
// (diagnostics for tests and reports).
func hostSet(g *ExecutionGraph) map[overlay.ID]bool {
	out := make(map[overlay.ID]bool)
	for _, p := range g.Placements {
		out[p.Host.ID] = true
	}
	return out
}

// NumHosts returns how many distinct hosts the graph's components run on.
func NumHosts(g *ExecutionGraph) int { return len(hostSet(g)) }
