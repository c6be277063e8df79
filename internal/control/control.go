// Package control is the origin-side adaptation control plane: the
// "dynamic" half of dynamic rate allocation, unified behind one
// event-driven controller. The periodic delivery-rate check, the gossip
// failure detector, transport circuit breakers, the tenancy gate and the
// federation borders all publish typed events onto a single channel; the
// controller applies single-flight, cooldown, backoff and concurrency
// gates, then reallocates rate *incrementally* — re-solving only the
// affected substreams with the surviving placements pre-seeded as
// zero-cost residual flow (core.MinCost.ComposeDelta) — and falls back to
// a full teardown-and-recompose only when the incremental solve is
// infeasible.
package control

import (
	"errors"
	"sync"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
)

// ErrUnknownApp is returned by Actions implementations when the
// application no longer exists (finished or torn down); the controller
// drops its state instead of retrying.
var ErrUnknownApp = errors.New("control: unknown application")

// Actions is the controller's view of the stream engine. Implementations
// must invoke the done callback exactly once, from the controller's
// execution context (the engine loop in live deployments, the simulator
// event loop in simulations).
type Actions interface {
	// AppsOn returns the IDs of live origin applications with a component
	// placed on host, in deterministic (sorted) order.
	AppsOn(host overlay.ID) []string
	// Reallocate incrementally shifts the application's rate away from
	// the degraded hosts: only the listed substreams (nil = all affected)
	// are re-solved, surviving placements keep their flow, sinks and
	// sources are not restarted. A wrapped core.ErrNoFeasiblePlacement
	// reports that the surviving hosts cannot absorb the displaced rate.
	Reallocate(app string, degraded map[overlay.ID]bool, substreams []int, done func(error))
	// Recompose tears the application down and re-composes it from fresh
	// discovery and monitoring state. upgrade selects the best-effort
	// upgrade composer for below-desired admissions.
	Recompose(app string, upgrade bool, done func(error))
}

// The controller's fixed pacing: a failed reallocation retries after
// retryBackoff, doubling per consecutive failure up to maxRetryBackoff and
// resetting on success; at most maxConcurrent reallocations run across all
// applications, excess work queuing FIFO.
const (
	retryBackoff    = time.Second
	maxRetryBackoff = 30 * time.Second
	maxConcurrent   = 4
)

// Config tunes the controller. The zero value plus a Clock is usable.
type Config struct {
	// Clock schedules event draining and retry timers. Required.
	Clock clock.Clock
	// Cooldown suppresses further actions on an application for this long
	// after a successful reallocation, letting the new split take effect
	// before it is judged (default 5s). Work arriving during cooldown is
	// merged and launched when the cooldown expires.
	Cooldown time.Duration
	// Observer, when set, receives decision-plane callbacks (event gate
	// verdicts, launches, outcomes) for the tracing layer.
	Observer Observer
}

// work is the merged reallocation demand for one application.
type work struct {
	degraded map[overlay.ID]bool
	// substreams nil = all; otherwise the union of affected indexes.
	substreams map[int]bool
	allSubs    bool
	full       bool
	upgrade    bool
}

func (w *work) merge(o *work) {
	if o.full {
		w.full = true
	}
	if o.upgrade {
		w.upgrade = true
	}
	for id := range o.degraded {
		if w.degraded == nil {
			w.degraded = make(map[overlay.ID]bool)
		}
		w.degraded[id] = true
	}
	if o.allSubs {
		w.allSubs = true
	}
	for l := range o.substreams {
		if w.substreams == nil {
			w.substreams = make(map[int]bool)
		}
		w.substreams[l] = true
	}
}

func (w *work) substreamList() []int {
	if w.allSubs || w.substreams == nil {
		return nil
	}
	list := make([]int, 0, len(w.substreams))
	for l := range w.substreams {
		list = append(list, l)
	}
	// Deterministic order for the delta solve and its telemetry.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j] < list[j-1]; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	return list
}

// appState tracks one application's controller-side lifecycle.
type appState struct {
	inflight      bool
	cooldownUntil time.Duration
	backoff       time.Duration
	pending       *work
	// timerArmed marks a scheduled flushPending (cooldown expiry or retry
	// backoff); timer is its handle.
	timerArmed bool
	timer      clock.Timer
}

// AppStatus is one application's controller-side posture, as reported by
// AppStatuses for introspection endpoints.
type AppStatus struct {
	App      string        `json:"app"`
	Inflight bool          `json:"inflight"`
	Pending  bool          `json:"pending"`
	Backoff  time.Duration `json:"backoff"`
	// CooldownRemaining is how much of the post-success cooldown is left
	// (0 when expired).
	CooldownRemaining time.Duration `json:"cooldown_remaining"`
}

// AppStatuses snapshots every tracked application's gate state, sorted by
// application ID. Like the rest of the controller it must be called from
// the Clock's execution context.
func (c *Controller) AppStatuses() []AppStatus {
	now := c.cfg.Clock.Now()
	out := make([]AppStatus, 0, len(c.apps))
	for app, st := range c.apps {
		s := AppStatus{
			App:      app,
			Inflight: st.inflight,
			Pending:  st.pending != nil,
			Backoff:  st.backoff,
		}
		if st.cooldownUntil > now {
			s.CooldownRemaining = st.cooldownUntil - now
		}
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].App < out[j-1].App; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Controller consumes adaptation events and drives reallocations through
// an Actions implementation. Publish is safe for concurrent use; all other
// processing runs in the Clock's execution context.
type Controller struct {
	cfg Config
	act Actions

	mu             sync.Mutex
	queue          []Event
	drainScheduled bool
	closed         bool

	apps    map[string]*appState
	inTotal int
	waiting []string // apps with pending work blocked on maxConcurrent, FIFO
}

// New builds a controller. cfg.Clock is required.
func New(cfg Config, act Actions) *Controller {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		panic("control: Config.Clock is required")
	}
	return &Controller{cfg: cfg, act: act, apps: make(map[string]*appState)}
}

// Publish enqueues one event and schedules a drain on the controller's
// clock. It is the only method safe to call from outside the controller's
// execution context.
func (c *Controller) Publish(ev Event) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.queue = append(c.queue, ev)
	schedule := !c.drainScheduled
	c.drainScheduled = true
	c.mu.Unlock()
	if schedule {
		c.cfg.Clock.After(0, c.drain)
	}
}

// Close cancels pending timers and makes further events no-ops. In-flight
// reallocations finish but trigger no follow-up work.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.queue = nil
	apps := c.apps
	c.mu.Unlock()
	for _, st := range apps {
		st.timer.Stop()
	}
}

func (c *Controller) drain() {
	c.mu.Lock()
	evs := c.queue
	c.queue = nil
	c.drainScheduled = false
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	for _, ev := range evs {
		c.handle(ev)
	}
}

func (c *Controller) app(id string) *appState {
	st := c.apps[id]
	if st == nil {
		st = &appState{}
		c.apps[id] = st
	}
	return st
}

func (c *Controller) handle(ev Event) {
	telEvents.With(ev.Kind.String()).Inc()
	switch ev.Kind {
	case MemberDead, BreakerOpen:
		// Failure-detector verdicts act immediately: the host is (or is
		// about to be declared) gone, waiting only widens the dip. They
		// are edge-triggered — fired once — so gated work is latched.
		c.forApps(ev, func(app string) {
			c.request(app, &ev, &work{degraded: map[overlay.ID]bool{ev.Host: true}, allSubs: true}, true)
		})
	case RateBelowThreshold:
		w := &work{}
		if ev.Host == (overlay.ID{}) {
			// No culprit to shift away from: the incremental solve has
			// nothing to exclude, so go straight to a full recompose.
			w.full = true
		} else {
			w.degraded = map[overlay.ID]bool{ev.Host: true}
		}
		if ev.Substreams == nil {
			w.allSubs = true
		} else {
			w.substreams = make(map[int]bool, len(ev.Substreams))
			for _, l := range ev.Substreams {
				w.substreams[l] = true
			}
		}
		c.request(ev.App, &ev, w, false)
	case UpgradePossible:
		c.request(ev.App, &ev, &work{full: true, upgrade: true, allSubs: true}, false)
	case FairShareChanged:
		// A fairness recompute moved the tenant's rate cap. The cap is
		// applied by the submission path, so a full recompose (with the
		// upgrade composer — the cap may have risen) converges the
		// application onto it. Edge-triggered: the gate fires once per
		// recompute, so gated work is latched.
		c.request(ev.App, &ev, &work{full: true, upgrade: true, allSubs: true}, true)
	case BoundaryLinkSaturated:
		// A hand-off was refused at the boundary ledger. There is no host
		// to shift away from (the scarcity is the inter-cluster link), so
		// re-plan the whole application. Edge-triggered per refusal.
		c.request(ev.App, &ev, &work{full: true, allSubs: true}, true)
	case RemoteCandidateLost:
		// A remote cluster went silent past its summary TTL. Its fragments
		// are unreachable state: tear down and re-compose from what still
		// answers. Edge-triggered — the TTL expiry fires once.
		c.request(ev.App, &ev, &work{full: true, allSubs: true}, true)
	}
}

// forApps resolves an event's target applications: the explicit App, or
// every application placed on the event's host.
func (c *Controller) forApps(ev Event, fn func(app string)) {
	if ev.App != "" {
		fn(ev.App)
		return
	}
	for _, app := range c.act.AppsOn(ev.Host) {
		fn(app)
	}
}

// request routes merged work for an application through the single-flight,
// cooldown and global-concurrency gates. latch decides what happens to
// gated work: edge-triggered events (a host died — the signal fires once)
// are remembered and launched when the gate clears; level-triggered events
// (delivered rate below threshold — re-published every check interval
// while the condition persists) are dropped, so that a condition which
// cleared on its own does not trigger a stale reallocation later. ev is
// the event that carried the work, nil when re-requesting merged pending
// work (the original events were already observed).
func (c *Controller) request(app string, ev *Event, w *work, latch bool) {
	st := c.app(app)
	if st.inflight {
		if latch {
			c.addPending(st, w)
		}
		telSuppressed.With("inflight").Inc()
		if ev != nil {
			c.observeGate(app, *ev, GateInflight, latch)
		}
		return
	}
	if st.timerArmed {
		// A backoff retry (or cooldown flush) is already scheduled for this
		// application. Fold latched work into it instead of racing it: this
		// is what paces a failing application at the backoff rate rather
		// than the event rate.
		if latch {
			c.addPending(st, w)
		}
		telSuppressed.With("backoff").Inc()
		if ev != nil {
			c.observeGate(app, *ev, GateBackoff, latch)
		}
		return
	}
	now := c.cfg.Clock.Now()
	if now < st.cooldownUntil {
		if latch {
			c.addPending(st, w)
			c.armTimer(app, st, st.cooldownUntil-now)
		}
		telSuppressed.With("cooldown").Inc()
		if ev != nil {
			c.observeGate(app, *ev, GateCooldown, latch)
		}
		return
	}
	if c.inTotal >= maxConcurrent {
		if latch {
			c.addPending(st, w)
			c.enqueueWaiting(app)
		}
		telSuppressed.With("limit").Inc()
		if ev != nil {
			c.observeGate(app, *ev, GateLimit, latch)
		}
		return
	}
	if ev != nil {
		c.observeGate(app, *ev, GateNone, false)
	}
	c.launch(app, st, w)
}

func (c *Controller) addPending(st *appState, w *work) {
	if st.pending == nil {
		st.pending = &work{}
	}
	st.pending.merge(w)
}

func (c *Controller) enqueueWaiting(app string) {
	for _, a := range c.waiting {
		if a == app {
			return
		}
	}
	c.waiting = append(c.waiting, app)
}

// armTimer schedules flushPending after d, unless one is already armed.
func (c *Controller) armTimer(app string, st *appState, d time.Duration) {
	if st.timerArmed {
		return
	}
	st.timerArmed = true
	st.timer = c.cfg.Clock.After(d, func() {
		st.timerArmed = false
		c.flushPending(app)
	})
}

// flushPending re-requests an application's merged pending work.
func (c *Controller) flushPending(app string) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	st := c.app(app)
	if st.pending == nil || st.inflight {
		return
	}
	w := st.pending
	st.pending = nil
	c.request(app, nil, w, true)
}

// dispatchWaiting launches queued work as global slots free up.
func (c *Controller) dispatchWaiting() {
	for len(c.waiting) > 0 && c.inTotal < maxConcurrent {
		app := c.waiting[0]
		c.waiting = c.waiting[1:]
		c.flushPending(app)
	}
}

// launch runs one reallocation for an application.
func (c *Controller) launch(app string, st *appState, w *work) {
	st.inflight = true
	c.inTotal++
	telInflight.Set(float64(c.inTotal))
	mode := "incremental"
	if w.full {
		mode = "full"
	}
	c.observeLaunch(app, mode, w)
	fellBack := false
	onDone := func(err error) { c.finish(app, st, w, mode, fellBack, err) }
	if w.full {
		c.act.Recompose(app, w.upgrade, onDone)
		return
	}
	c.act.Reallocate(app, w.degraded, w.substreamList(), func(err error) {
		if err != nil && errors.Is(err, core.ErrNoFeasiblePlacement) {
			// The surviving hosts cannot absorb the displaced rate:
			// fall back to the teardown-and-recompose path.
			telFallbacks.Inc()
			mode = "full"
			fellBack = true
			c.act.Recompose(app, false, onDone)
			return
		}
		onDone(err)
	})
}

// finish settles one completed reallocation: cooldown on success, backoff
// re-arm on failure, then hands freed slots to waiting applications.
func (c *Controller) finish(app string, st *appState, w *work, mode string, fellBack bool, err error) {
	st.inflight = false
	c.inTotal--
	telInflight.Set(float64(c.inTotal))
	now := c.cfg.Clock.Now()
	switch {
	case err == nil:
		telActions.With(mode).Inc()
		st.backoff = 0
		st.cooldownUntil = now + c.cfg.Cooldown
		if st.pending != nil {
			c.armTimer(app, st, c.cfg.Cooldown)
		}
	case errors.Is(err, ErrUnknownApp):
		// The application finished while the work was queued; forget it.
		st.timer.Stop()
		delete(c.apps, app)
	default:
		telFailures.Inc()
		// A failed attempt re-arms immediately with exponential backoff —
		// the old adaptation loop instead parked the application until
		// the next periodic check.
		if st.backoff == 0 {
			st.backoff = retryBackoff
		} else if st.backoff *= 2; st.backoff > maxRetryBackoff {
			st.backoff = maxRetryBackoff
		}
		c.addPending(st, w)
		c.armTimer(app, st, st.backoff)
	}
	if c.cfg.Observer != nil {
		c.cfg.Observer.OnOutcome(app, mode, fellBack, err, st.backoff)
	}
	c.dispatchWaiting()
}
