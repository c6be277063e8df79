package control

import (
	"time"

	"rasc.dev/rasc/internal/overlay"
)

// Gate names reported to the Observer: why an event did not launch a
// reallocation immediately. GateNone means the event cleared every gate
// and is launching now.
const (
	GateNone     = ""
	GateInflight = "inflight"
	GateBackoff  = "backoff"
	GateCooldown = "cooldown"
	GateLimit    = "limit"
)

// Observer receives the controller's decision-plane callbacks: every
// event's fate at the gates, every launch and every outcome. It exists so
// the tracing layer can reconstruct causal chains without the controller
// depending on it; a nil Observer costs nothing.
//
// All callbacks run in the controller's execution context (the engine
// loop), in causal order for any one application.
type Observer interface {
	// OnEventGate reports an event's fate for one application: gate
	// GateNone means it proceeds to launch; any other gate names why it
	// was held, and latched tells whether the work was remembered
	// (edge-triggered events) or dropped (level-triggered ones).
	OnEventGate(app string, ev Event, gate string, latched bool)
	// OnLaunch reports a reallocation starting: the merged work's mode
	// ("incremental" or "full"), the degraded hosts being routed away
	// from (sorted) and the affected substreams (nil = all).
	OnLaunch(app string, mode string, degraded []overlay.ID, substreams []int, upgrade bool)
	// OnOutcome reports a completed reallocation. fellBack marks an
	// incremental solve that was infeasible and went through the full
	// path; backoff is the retry delay armed after a failure (0 on
	// success).
	OnOutcome(app string, mode string, fellBack bool, err error, backoff time.Duration)
}

// observeGate forwards one gate verdict to the configured observer.
func (c *Controller) observeGate(app string, ev Event, gate string, latched bool) {
	if c.cfg.Observer != nil {
		c.cfg.Observer.OnEventGate(app, ev, gate, latched)
	}
}

// observeLaunch forwards one launch to the configured observer.
func (c *Controller) observeLaunch(app, mode string, w *work) {
	if c.cfg.Observer == nil {
		return
	}
	var degraded []overlay.ID
	for id := range w.degraded {
		degraded = append(degraded, id)
	}
	for i := 1; i < len(degraded); i++ {
		for j := i; j > 0 && degraded[j].Cmp(degraded[j-1]) < 0; j-- {
			degraded[j], degraded[j-1] = degraded[j-1], degraded[j]
		}
	}
	c.cfg.Observer.OnLaunch(app, mode, degraded, w.substreamList(), w.upgrade)
}
