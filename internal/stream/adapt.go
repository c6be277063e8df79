package stream

import (
	"errors"
	"sort"
	"time"

	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// AdaptationConfig tunes the origin-side adaptation plane: the "dynamic"
// half of dynamic rate allocation. The origin publishes typed events —
// delivered rate below threshold (periodic sink check), member dead
// (gossip), breaker open (transport) — to a control.Controller, which
// reallocates rate incrementally (core.MinCost.ComposeDelta shifts split
// ratios away from the degraded hosts without restarting the stream) and
// falls back to a full teardown-and-recompose when the delta solve is
// infeasible.
type AdaptationConfig struct {
	// Interval between delivery-rate checks (default 5s). The
	// controller's cooldown is two intervals, and the availability meter
	// samples every min(Interval, 1s).
	Interval time.Duration
	// Composer used for re-composition (default MinCost). Composers
	// implementing core.DeltaComposer get the incremental path; others
	// always recompose in full.
	Composer core.Composer
}

const (
	// minRateFraction of the required rate below which a substream
	// publishes RateBelowThreshold and the availability meter accrues
	// time below the requested rate.
	minRateFraction = 0.5
	// adaptTimeout bounds the re-composition RPCs.
	adaptTimeout = 10 * time.Second
)

// upgradeComposer re-composes streams admitted below their desired rate:
// best-effort at 50 %, so a failed upgrade still re-admits at the
// achievable rate.
var upgradeComposer core.Composer = &core.MinCost{BestEffortFraction: 0.5}

func (c *AdaptationConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Composer == nil {
		c.Composer = &core.MinCost{}
	}
}

// originState tracks one application originated at this engine for
// adaptation purposes.
type originState struct {
	graph *core.ExecutionGraph
	// desired is the request as originally submitted; a best-effort
	// admission may have lowered graph.Request's rates below it.
	desired      spec.Request
	lastReceived map[int]int64
	lastCheck    time.Duration
	// availReceived and availAt are the availability meter's own sink
	// cursors — separate from the adaptation check's so the two sampling
	// loops do not disturb each other's rate windows.
	availReceived map[int]int64
	availAt       time.Duration
}

// admittedBelowDesired reports whether the live graph carries less than
// the originally requested rate.
func (st *originState) admittedBelowDesired() bool {
	if len(st.desired.Substreams) != len(st.graph.Request.Substreams) {
		return false
	}
	for l, ss := range st.desired.Substreams {
		if st.graph.Request.Substreams[l].Rate < ss.Rate {
			return true
		}
	}
	return false
}

// EnableAdaptation starts the periodic delivery-rate check and (re)builds
// the event controller. Calling it again replaces the configuration. The
// loop schedules itself forever; deterministic simulations must advance
// time with RunUntil (not Run) once adaptation is enabled, and should
// DisableAdaptation when draining.
func (e *Engine) EnableAdaptation(cfg AdaptationConfig) {
	cfg.defaults()
	e.DisableAdaptation()
	e.adaptCfg = &cfg
	e.controller = e.newController(&cfg)
	var tick func()
	tick = func() {
		e.checkAdaptation()
		e.adaptTimer = e.clk.After(cfg.Interval, tick)
	}
	e.adaptTimer = e.clk.After(cfg.Interval, tick)
	// The availability meter samples faster than the adaptation check so
	// the journal's convergence timestamps resolve recovery within a
	// reallocation cooldown, not just at check granularity.
	availEvery := min(cfg.Interval, time.Second)
	var sample func()
	sample = func() {
		e.sampleAvailability()
		e.availTimer = e.clk.After(availEvery, sample)
	}
	e.availTimer = e.clk.After(availEvery, sample)
}

// DisableAdaptation stops the check loop and closes the controller. The
// membership fast path (OnPeerDead) stays armed: it lazily rebuilds a
// controller from the stored configuration, as before the control plane
// existed.
func (e *Engine) DisableAdaptation() {
	e.adaptTimer.Stop()
	e.availTimer.Stop()
	if e.controller != nil {
		e.controller.Close()
		e.controller = nil
	}
}

// adaptConfig returns the stored adaptation configuration, installing the
// defaults when adaptation was never enabled.
func (e *Engine) adaptConfig() *AdaptationConfig {
	if e.adaptCfg == nil {
		c := AdaptationConfig{}
		c.defaults()
		e.adaptCfg = &c
	}
	return e.adaptCfg
}

// ensureController returns the engine's controller, lazily building one
// from the stored configuration for engines that never called
// EnableAdaptation (the member-dead fast path works regardless).
func (e *Engine) ensureController() *control.Controller {
	if e.controller == nil {
		e.controller = e.newController(e.adaptConfig())
	}
	return e.controller
}

// newController builds the engine's event controller for cfg, observed by
// the decision tracker. A check measuring the recovery dip of a
// reallocation that just landed must fall inside the cooldown, or it would
// trigger a spurious follow-up: the cooldown is two check intervals.
func (e *Engine) newController(cfg *AdaptationConfig) *control.Controller {
	return control.New(control.Config{
		Clock:    e.clk,
		Cooldown: 2 * cfg.Interval,
		Observer: e.ensureTracker(),
	}, e)
}

// Controller exposes the engine's adaptation controller (nil until an
// event or EnableAdaptation builds one) for introspection and tests.
func (e *Engine) Controller() *control.Controller { return e.controller }

// Recompositions counts adaptation-triggered reallocation attempts, both
// incremental and full (diagnostics and tests).
func (e *Engine) Recompositions() int64 { return e.recompositions }

// Reallocations counts the incremental (delta-compose) subset of
// Recompositions.
func (e *Engine) Reallocations() int64 { return e.reallocations }

// OnPeerDead publishes a MemberDead event for every origin application:
// the membership fast path, fired by the gossip failure detector well
// before the periodic delivery-rate check would notice the degradation.
func (e *Engine) OnPeerDead(id overlay.ID) {
	e.ensureController().Publish(control.Event{Kind: control.MemberDead, Host: id})
}

// OnBreakerOpen publishes a BreakerOpen event: the transport circuit
// breaker observed consecutive send failures toward the host, an earlier
// signal than the gossip verdict.
func (e *Engine) OnBreakerOpen(id overlay.ID) {
	e.ensureController().Publish(control.Event{Kind: control.BreakerOpen, Host: id})
}

// checkAdaptation measures every live origin application's delivered rate
// and publishes the resulting events. Origins are visited in sorted order
// so event order — and therefore controller scheduling — is deterministic.
func (e *Engine) checkAdaptation() {
	now := e.clk.Now()
	ids := make([]string, 0, len(e.origins))
	for id := range e.origins {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, reqID := range ids {
		st := e.origins[reqID]
		elapsed := now - st.lastCheck
		if elapsed <= 0 {
			continue
		}
		var degraded []int
		for l, ss := range st.graph.Request.Substreams {
			sink := e.Sink(reqID, l)
			if sink == nil {
				continue
			}
			got := sink.Received - st.lastReceived[l]
			st.lastReceived[l] = sink.Received
			rate := float64(got) / elapsed.Seconds()
			if rate < minRateFraction*float64(ss.Rate) {
				degraded = append(degraded, l)
			}
		}
		st.lastCheck = now
		if len(degraded) > 0 {
			// The sink check knows which substreams starve but not which
			// host is at fault; with no one to shift away from, the
			// controller goes straight to a full recompose.
			e.controller.Publish(control.Event{
				Kind: control.RateBelowThreshold, App: reqID, Substreams: degraded,
			})
			continue
		}
		// Upgrade path: a healthy application admitted below its desired
		// rate retries composition at the full requirement — capacity
		// may have freed since admission (dynamic rate allocation).
		if st.admittedBelowDesired() {
			// Unless the tenancy gate still caps the application below
			// its desired rate: the re-submit would clamp right back to
			// the cap, so the recompose would churn for nothing. Cap
			// increases arrive as fair_share_changed events instead.
			if e.tenantGate != nil {
				if cap, ok := e.tenantGate.CapBps(reqID); ok &&
					cap < st.desired.BitsPerSecond(st.desired.TotalRate())-1e-6 {
					continue
				}
			}
			e.controller.Publish(control.Event{Kind: control.UpgradePossible, App: reqID})
		}
	}
}

// sampleAvailability measures every origin application's delivered rate
// over the availability window. Time spent below minRateFraction of the
// live request accrues into rasc_app_time_below_requested_seconds_total —
// the paper's availability objective as a directly scrapeable counter — and
// a window back at or above threshold marks the application's completed
// decisions converged in the journal.
func (e *Engine) sampleAvailability() {
	now := e.clk.Now()
	ids := make([]string, 0, len(e.origins))
	for id := range e.origins {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, app := range ids {
		st := e.origins[app]
		elapsed := now - st.availAt
		if elapsed <= 0 {
			continue
		}
		if st.availReceived == nil {
			st.availReceived = make(map[int]int64)
		}
		var got int64
		var want int64
		// The availability objective is measured against the rate the
		// user asked for, not the (possibly fair-share-capped or
		// best-effort) rate the live graph carries: a tenant downgraded
		// under contention is below its requested rate even while it
		// delivers its cap perfectly.
		wantSubs := st.graph.Request.Substreams
		if len(st.desired.Substreams) == len(wantSubs) {
			wantSubs = st.desired.Substreams
		}
		for l := range st.graph.Request.Substreams {
			want += int64(wantSubs[l].Rate)
			sink := e.Sink(app, l)
			if sink == nil {
				continue
			}
			d := sink.Received - st.availReceived[l]
			if d < 0 {
				// The sink was replaced by a full recompose and its
				// counter restarted.
				d = sink.Received
			}
			st.availReceived[l] = sink.Received
			got += d
		}
		st.availAt = now
		rate := float64(got) / elapsed.Seconds()
		if rate < minRateFraction*float64(want) {
			telAppTimeBelow.With(app).AddDuration(elapsed)
		} else if e.journal != nil {
			e.journal.Converge(app, now)
		}
	}
	// Applications torn down by a full recompose have no origin state, so
	// the loop above cannot see them: charge their downtime here and move
	// the cursor so re-activation only pays the remainder.
	down := make([]string, 0, len(e.availDown))
	for app := range e.availDown {
		down = append(down, app)
	}
	sort.Strings(down)
	for _, app := range down {
		if _, ok := e.origins[app]; ok {
			delete(e.availDown, app)
			continue
		}
		if elapsed := now - e.availDown[app]; elapsed > 0 {
			telAppTimeBelow.With(app).AddDuration(elapsed)
			e.availDown[app] = now
		}
	}
}

// Recompose implements control.Actions: tear the application down and
// submit it again with fresh discovery and monitoring state. The request
// keeps its ID; its sinks are replaced, so delivery statistics restart
// from the re-composition.
func (e *Engine) Recompose(app string, upgrade bool, done func(error)) {
	st, ok := e.origins[app]
	if !ok {
		done(control.ErrUnknownApp)
		return
	}
	composer := e.adaptConfig().Composer
	if upgrade {
		composer = upgradeComposer
	}
	e.recompositions++
	req := st.desired
	if req.ID == "" {
		req = st.graph.Request
	}
	oldGraph := st.graph
	desired := st.desired
	// Internal teardown: the tenant keeps its admission through the
	// recompose (the re-submit re-admits idempotently at the current cap).
	e.teardown(st.graph, adaptTimeout)
	delete(e.origins, app)
	// The application delivers nothing between teardown and the new
	// graph's activation; charge that whole window to the availability
	// meter even when it is shorter than one sampling period.
	e.availDown[app] = e.clk.Now()
	// Route the re-composition's solver stats to the open decision trace:
	// compose() picks the capture up by request ID.
	e.composeCapture[app] = &core.ComposeStats{}
	e.Submit(req, composer, adaptTimeout, func(g *core.ExecutionGraph, err error) {
		delete(e.composeCapture, app)
		if at, ok := e.availDown[app]; ok {
			delete(e.availDown, app)
			if d := e.clk.Now() - at; d > 0 {
				telAppTimeBelow.With(app).AddDuration(d)
			}
		}
		if err != nil && !errors.Is(err, ErrSubmitCancelled) {
			// Nothing composable right now — e.g. a lookup routed
			// through a just-failed node. Re-register the old state so
			// the controller's backoff retry finds it; by then the
			// failed RPCs have pruned the dead peer from the routing
			// tables.
			e.origins[app] = &originState{
				graph:        oldGraph,
				desired:      desired,
				lastReceived: make(map[int]int64),
				lastCheck:    e.clk.Now(),
				// The old sinks survive teardown, so the availability
				// meter keeps its cursors instead of re-counting their
				// lifetime totals as one window's delivery.
				availReceived: st.availReceived,
				availAt:       e.clk.Now(),
			}
		}
		done(err)
	})
}
