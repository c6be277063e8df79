package stream

import (
	"fmt"
	"sort"
	"time"

	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
)

// AppsOn implements control.Actions: the origin applications with a
// component placed on host, in sorted order.
func (e *Engine) AppsOn(host overlay.ID) []string {
	var apps []string
	for id, st := range e.origins {
		for _, p := range st.graph.Placements {
			if p.Host.ID == host {
				apps = append(apps, id)
				break
			}
		}
	}
	sort.Strings(apps)
	return apps
}

// Reallocate implements control.Actions: incremental rate reallocation.
// Instead of tearing the application down, it re-solves only the affected
// substreams with core.DeltaComposer.ComposeDelta — surviving placements
// pre-seeded as zero-cost residual flow, degraded hosts excluded — and
// re-instantiates just those substreams' components with the new split
// ratios. Sinks and sources keep running, so the delivered-rate dip is
// only as long as detection plus one delta solve, not a full
// teardown-and-readmission.
//
// A wrapped core.ErrNoFeasiblePlacement (surviving hosts cannot absorb the
// displaced rate, or the composer cannot delta-compose) tells the
// controller to fall back to a full recompose.
func (e *Engine) Reallocate(app string, degraded map[overlay.ID]bool, substreams []int, done func(error)) {
	st, ok := e.origins[app]
	if !ok {
		done(control.ErrUnknownApp)
		return
	}
	cfg := e.adaptConfig()
	dc, ok := cfg.Composer.(core.DeltaComposer)
	if !ok {
		done(fmt.Errorf("stream: composer %q cannot delta-compose: %w",
			cfg.Composer.Name(), core.ErrNoFeasiblePlacement))
		return
	}
	// Affected substreams: the ones named by the event plus every one with
	// a placement on a degraded host (a substream left out of the solve
	// would be copied verbatim — including its dead placements).
	affectedSet := make(map[int]bool, len(substreams))
	for _, l := range substreams {
		affectedSet[l] = true
	}
	for _, p := range st.graph.Placements {
		if degraded[p.Host.ID] {
			affectedSet[p.Substream] = true
		}
	}
	if len(affectedSet) == 0 {
		// No live placement rides through the degraded hosts; the event
		// was stale by the time it drained.
		done(nil)
		return
	}
	affected := make([]int, 0, len(affectedSet))
	for l := range affectedSet {
		affected = append(affected, l)
	}
	sort.Ints(affected)
	e.recompositions++
	e.reallocations++
	// The live request — including any best-effort rate reduction — not
	// the originally desired one: the delta solve relocates the rate the
	// application actually carries.
	req := st.graph.Request
	e.gatherInput(req, cfg.Timeout, func(in core.Input, err error) {
		if err != nil {
			done(err)
			return
		}
		if cur, ok := e.origins[app]; !ok || cur != st {
			// The application was torn down or fully recomposed
			// while stats were in flight.
			done(control.ErrUnknownApp)
			return
		}
		in.Stats = &core.ComposeStats{}
		solveStart := e.clk.Now()
		g, err := dc.ComposeDelta(in, st.graph, degraded, affected)
		e.observeSolve(app, in.Stats, solveStart, err)
		if err != nil {
			done(err)
			return
		}
		applyStart := e.clk.Now()
		e.applyDelta(app, st, g, affectedSet, cfg.Timeout, func(err error) {
			e.observeApply(app, applyStart, err)
			done(err)
		})
	})
}

// applyDelta installs an incrementally re-composed graph: the affected
// substreams' placements are re-instantiated (overwriting survivors with
// their new split ratios and creating the replacements), then the local
// sources are retargeted at the new stage-0 split. Components on abandoned
// hosts are left behind untouched — they stop receiving data once the
// upstream splits move away, and tearing them down per-substream would
// race the request-scoped teardown protocol.
func (e *Engine) applyDelta(app string, st *originState, g *core.ExecutionGraph,
	affected map[int]bool, timeout time.Duration, done func(error)) {

	byPlacement, sourceOuts := graphOuts(g)
	var targets []core.Placement
	for _, p := range g.Placements {
		if affected[p.Substream] {
			targets = append(targets, p)
		}
	}
	remaining := len(targets)
	var firstErr error
	finish := func() {
		if firstErr != nil {
			// Some hosts now run the new split while others kept the
			// old one; the composed graph still describes the intent,
			// so keep the old state and let the controller's backoff
			// retry (or fall back) reconcile.
			done(firstErr)
			return
		}
		st.graph = g
		e.chargePlacements(g)
		for l := range affected {
			if src := e.sources[sinkKey(app, l)]; src != nil {
				src.retarget(sourceOuts[l])
			}
		}
		done(nil)
	}
	if remaining == 0 {
		finish()
		return
	}
	for _, p := range targets {
		p := p
		e.requestInstantiate(g, p, byPlacement, timeout, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("stream: re-instantiate %s@%s: %w", p.Service, p.Host.Addr, err)
			}
			remaining--
			if remaining == 0 {
				finish()
			}
		})
	}
}
