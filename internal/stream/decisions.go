package stream

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/trace"
)

// decisionTracker implements control.Observer: it turns the controller's
// gate/launch/outcome callbacks into decision traces in a trace.Journal.
// One trace is open per application at a time — further events that merge
// into pending work become spans on the open trace. The tracker runs in
// the engine's execution context, so its map needs no locking; the journal
// locks internally.
type decisionTracker struct {
	journal *trace.Journal
	clk     clock.Clock
	active  map[string]*trace.ActiveDecision
}

func newDecisionTracker(j *trace.Journal, clk clock.Clock) *decisionTracker {
	return &decisionTracker{journal: j, clk: clk, active: make(map[string]*trace.ActiveDecision)}
}

// eventCause renders the human-readable cause line for a trigger event.
func eventCause(ev control.Event) string {
	switch ev.Kind {
	case control.MemberDead:
		return "member dead: " + ev.Host.String()
	case control.BreakerOpen:
		return "breaker open: " + ev.Host.String()
	case control.RateBelowThreshold:
		return fmt.Sprintf("substreams %v below threshold", ev.Substreams)
	case control.UpgradePossible:
		return "admitted below desired rate"
	}
	return ""
}

// eventAttrs builds the structured attributes carried by trigger and gate
// spans.
func eventAttrs(ev control.Event) []trace.Attr {
	var attrs []trace.Attr
	if ev.Host != (overlay.ID{}) {
		attrs = append(attrs, trace.A("host", ev.Host.String()))
	}
	if len(ev.Substreams) > 0 {
		attrs = append(attrs, trace.A("substreams", fmt.Sprint(ev.Substreams)))
	}
	return attrs
}

// OnEventGate implements control.Observer: an event cleared the gates
// (GateNone) or was held. Events that open work — cleared or latched —
// begin a trace; held events on an open trace become gate spans; dropped
// events with nothing open leave no record.
func (t *decisionTracker) OnEventGate(app string, ev control.Event, gate string, latched bool) {
	now := t.clk.Now()
	a := t.active[app]
	if a == nil {
		if gate != control.GateNone && !latched {
			return
		}
		a = t.journal.Begin(now, app, ev.Kind.String(), eventCause(ev))
		t.active[app] = a
		if gate != control.GateNone {
			a.Span("gate:"+gate, now, now, append(eventAttrs(ev), trace.ABool("latched", latched))...)
		}
		return
	}
	// A further event arrived while a decision is open (inflight or
	// latched): record its fate as a span on the same trace.
	name := "trigger:" + ev.Kind.String()
	attrs := eventAttrs(ev)
	if gate != control.GateNone {
		name = "gate:" + gate
		attrs = append(attrs,
			trace.A("trigger", ev.Kind.String()),
			trace.ABool("latched", latched))
	}
	a.Span(name, now, now, attrs...)
}

// OnLaunch implements control.Observer: the controller is starting a
// reallocation. A launch with no open trace is a backoff retry of work
// whose original trace already completed with its failure.
func (t *decisionTracker) OnLaunch(app string, mode string, degraded []overlay.ID, substreams []int, upgrade bool) {
	now := t.clk.Now()
	a := t.active[app]
	if a == nil {
		a = t.journal.Begin(now, app, "retry_backoff", "controller retry of pending work")
		t.active[app] = a
	}
	attrs := []trace.Attr{trace.A("mode", mode)}
	if len(degraded) > 0 {
		strs := make([]string, len(degraded))
		for i, id := range degraded {
			strs[i] = id.String()
		}
		attrs = append(attrs, trace.A("degraded", strings.Join(strs, ",")))
	}
	if substreams != nil {
		attrs = append(attrs, trace.A("substreams", fmt.Sprint(substreams)))
	}
	if upgrade {
		attrs = append(attrs, trace.ABool("upgrade", true))
	}
	a.Span("decide", a.TriggeredAt(), now, attrs...)
}

// OnOutcome implements control.Observer: the reallocation completed. The
// trace seals with the outcome; convergence is marked later by the
// availability sampler once the delivered rate recovers.
func (t *decisionTracker) OnOutcome(app string, mode string, fellBack bool, err error, backoff time.Duration) {
	a := t.active[app]
	if a == nil {
		return
	}
	delete(t.active, app)
	if fellBack {
		a.Annotate(trace.ABool("fell_back", true))
	}
	if backoff > 0 {
		a.Annotate(trace.ADur("backoff", backoff))
	}
	a.Complete(t.clk.Now(), mode, err)
}

// observeSolve records a composition solve as a span on the application's
// open decision trace: candidate/arc/iteration counts from the solver,
// feasibility, and the wall-clock solve time.
func (e *Engine) observeSolve(app string, st *core.ComposeStats, start time.Duration, err error) {
	if e.tracker == nil {
		return
	}
	a := e.tracker.active[app]
	if a == nil {
		return
	}
	attrs := []trace.Attr{
		trace.AInt("substreams", int64(st.Substreams)),
		trace.AInt("copied", int64(st.Copied)),
		trace.AInt("candidates", int64(st.Candidates)),
		trace.AInt("nodes", int64(st.Nodes)),
		trace.AInt("arcs", int64(st.Arcs)),
		trace.AInt("iterations", int64(st.Iterations)),
		trace.AInt("flow", st.Flow),
		trace.ABool("feasible", st.Feasible),
		trace.ADur("wall", st.Duration),
	}
	if err != nil {
		attrs = append(attrs, trace.A("err", err.Error()))
	}
	a.Span("solve", start, e.clk.Now(), attrs...)
}

// observeApply records the re-instantiation round of an incremental
// reallocation as a span on the application's open decision trace.
func (e *Engine) observeApply(app string, start time.Duration, err error) {
	if e.tracker == nil {
		return
	}
	a := e.tracker.active[app]
	if a == nil {
		return
	}
	var attrs []trace.Attr
	if err != nil {
		attrs = append(attrs, trace.A("err", err.Error()))
	}
	a.Span("apply", start, e.clk.Now(), attrs...)
}

// AppComposition is one origin application's live composition, as served
// by the /debug/rasc/composition endpoint.
type AppComposition struct {
	App string `json:"app"`
	// Desired is the request as originally submitted; a best-effort
	// admission may run below it.
	Desired spec.Request         `json:"desired"`
	Graph   *core.ExecutionGraph `json:"graph"`
}

// CompositionSnapshot returns every origin application's live execution
// graph, sorted by application ID. Like every engine method it must run in
// the engine's execution context; the graphs are shared, treat them as
// read-only.
func (e *Engine) CompositionSnapshot() []AppComposition {
	out := make([]AppComposition, 0, len(e.origins))
	for app, st := range e.origins {
		out = append(out, AppComposition{App: app, Desired: st.desired, Graph: st.graph})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}
