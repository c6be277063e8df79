package stream

import (
	"time"

	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/tenant"
)

// pendingSubmit is a submission parked by the admission gate (queued or
// preempted), replayed when the gate promotes the tenant.
type pendingSubmit struct {
	req      spec.Request
	composer core.Composer
	timeout  time.Duration
}

// SetTenantGate installs the cluster's admission gate in front of this
// engine's Submit path. Every origin-side submission then passes the
// gate: rejected requests fail fast with a typed error before any RPC,
// queued ones are replayed automatically on promotion, and admitted ones
// are capped to their fair-share rate.
func (e *Engine) SetTenantGate(g *tenant.Gate) {
	e.tenantGate = g
	if e.pendingAdmission == nil {
		e.pendingAdmission = make(map[string]pendingSubmit)
	}
}

// TenantGate returns the installed admission gate (nil without tenancy).
func (e *Engine) TenantGate() *tenant.Gate { return e.tenantGate }

// admit runs the submission through the admission gate. It returns the
// (possibly rate-capped) request to compose and a wrapped callback; done
// is true when the gate disposed of the submission (queued or rejected)
// and the pipeline must stop.
func (e *Engine) admit(req spec.Request, composer core.Composer, timeout time.Duration,
	cb func(*core.ExecutionGraph, error)) (spec.Request, func(*core.ExecutionGraph, error), bool) {

	if e.tenantGate == nil {
		return req, cb, false
	}
	dec := e.tenantGate.Admit(req.ID, req.Priority, req.BitsPerSecond(req.TotalRate()), e)
	switch dec.State {
	case tenant.StateQueued:
		// Parked: remember the submission so a later promotion replays
		// it. The caller still sees the typed queued error — the stream
		// is not running yet.
		e.pendingAdmission[req.ID] = pendingSubmit{req: req, composer: composer, timeout: timeout}
		cb(nil, dec.Err)
		return req, nil, true
	case tenant.StateRejected:
		cb(nil, dec.Err)
		return req, nil, true
	}
	capped := tenant.CapRequest(req, dec.CapBps)
	if dec.New {
		// A brand-new admission holds its slot only if the composition
		// pipeline succeeds; a recompose of an existing tenant keeps its
		// admission through a failed attempt (the controller retries).
		inner := cb
		app := req.ID
		cb = func(g *core.ExecutionGraph, err error) {
			if err != nil {
				e.tenantGate.Release(app)
			}
			inner(g, err)
		}
	}
	return capped, cb, false
}

// The engine is the tenant.Owner of every application it originates. The
// gate calls from arbitrary goroutines and outside its own lock; each
// hook hops onto the engine's event loop before touching engine state.

// TenantCapChanged converges the application onto its new fair-share cap
// by publishing the fair_share_changed control event; the controller's
// recompose resubmits the desired request and the admission hook clamps
// it to the new cap.
func (e *Engine) TenantCapChanged(app string, capBps float64) {
	e.clk.After(0, func() {
		if _, ok := e.origins[app]; !ok {
			return
		}
		e.ensureController().Publish(control.Event{Kind: control.FairShareChanged, App: app})
	})
}

// TenantPreempted tears the application down; the gate holds it in the
// admission queue and the engine replays the submission on promotion.
func (e *Engine) TenantPreempted(app string) {
	e.clk.After(0, func() {
		st, ok := e.origins[app]
		if !ok {
			return
		}
		// Remember the original (uncapped) request for the replay; only
		// while the gate still tracks the tenant — a preemption into a
		// full queue drops it entirely.
		if e.tenantGate != nil && e.tenantGate.Has(app) {
			e.pendingAdmission[app] = pendingSubmit{req: st.desired, composer: e.adaptConfig().Composer, timeout: adaptTimeout}
		}
		e.teardown(st.graph, adaptTimeout)
		// The application delivers nothing while parked: charge the whole
		// parked window to the availability meter.
		e.availDown[app] = e.clk.Now()
	})
}

// TenantPromoted replays the parked submission of a tenant the gate just
// admitted from the queue.
func (e *Engine) TenantPromoted(app string) {
	e.clk.After(0, func() {
		p, ok := e.pendingAdmission[app]
		if !ok {
			return
		}
		delete(e.pendingAdmission, app)
		e.Submit(p.req, p.composer, p.timeout, func(_ *core.ExecutionGraph, err error) {
			if err != nil && e.tenantGate != nil {
				// The promotion did not stick (composition failed): give
				// the slot back so the gate can promote someone else.
				e.tenantGate.Release(app)
				delete(e.availDown, app)
			}
		})
	})
}
