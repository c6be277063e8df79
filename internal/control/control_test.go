package control

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
)

// fakeClock is a deterministic single-threaded clock for controller tests.
type fakeClock struct {
	now    time.Duration
	timers []*fakeTimer
}

type fakeTimer struct {
	at      time.Duration
	fn      func()
	stopped bool
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) After(d time.Duration, fn func()) clock.Timer {
	t := &fakeTimer{at: c.now + d, fn: fn}
	c.timers = append(c.timers, t)
	return clock.StopWith(t)
}

func (t *fakeTimer) Stop() bool {
	t.stopped = true
	return true
}

func (c *fakeClock) Resolution() time.Duration { return 0 }

// advance runs due timers in time order (FIFO on ties) up to now+d.
func (c *fakeClock) advance(d time.Duration) {
	target := c.now + d
	for {
		best := -1
		for i, t := range c.timers {
			if !t.stopped && (best == -1 || t.at < c.timers[best].at) {
				best = i
			}
		}
		if best == -1 || c.timers[best].at > target {
			break
		}
		t := c.timers[best]
		c.timers = append(c.timers[:best], c.timers[best+1:]...)
		if t.at > c.now {
			c.now = t.at
		}
		t.fn()
	}
	c.now = target
}

type call struct {
	app      string
	degraded map[overlay.ID]bool
	subs     []int
	full     bool
	upgrade  bool
	done     func(error)
}

// fakeActions records reallocation calls; tests complete them explicitly
// via call.done, or rely on finish() to pop-and-complete the oldest.
type fakeActions struct {
	appsOn map[overlay.ID][]string
	calls  []call
}

func (f *fakeActions) AppsOn(host overlay.ID) []string { return f.appsOn[host] }

func (f *fakeActions) Reallocate(app string, degraded map[overlay.ID]bool, subs []int, done func(error)) {
	f.calls = append(f.calls, call{app: app, degraded: degraded, subs: subs, done: done})
}

func (f *fakeActions) Recompose(app string, upgrade bool, done func(error)) {
	f.calls = append(f.calls, call{app: app, full: true, upgrade: upgrade, done: done})
}

// finish completes the oldest unfinished call with err.
func (f *fakeActions) finish(t *testing.T, err error) call {
	t.Helper()
	for i := range f.calls {
		if f.calls[i].done != nil {
			cl := f.calls[i]
			f.calls[i].done = nil
			cl.done(err)
			return cl
		}
	}
	t.Fatal("no unfinished call")
	return call{}
}

func host(i byte) overlay.ID { return overlay.ID{i} }

func newTestController(t *testing.T, cfg Config) (*Controller, *fakeClock, *fakeActions) {
	t.Helper()
	clk := &fakeClock{}
	act := &fakeActions{appsOn: make(map[overlay.ID][]string)}
	cfg.Clock = clk
	return New(cfg, act), clk, act
}

func TestMemberDeadReallocatesEveryAppOnHost(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	act.appsOn[host(7)] = []string{"a", "b"}
	c.Publish(Event{Kind: MemberDead, Host: host(7)})
	clk.advance(0)
	if len(act.calls) != 2 {
		t.Fatalf("calls = %d, want 2", len(act.calls))
	}
	for i, app := range []string{"a", "b"} {
		cl := act.calls[i]
		if cl.app != app || cl.full || !cl.degraded[host(7)] {
			t.Fatalf("call %d = %+v, want incremental for %q away from host 7", i, cl, app)
		}
	}
	act.finish(t, nil)
	act.finish(t, nil)
	// Both succeeded: each app sits in its cooldown with no backoff armed.
	for _, st := range c.AppStatuses() {
		if st.Inflight || st.Backoff != 0 || st.CooldownRemaining == 0 {
			t.Fatalf("status after success = %+v", st)
		}
	}
	if len(act.calls) != 2 {
		t.Fatalf("calls after success = %d, want 2", len(act.calls))
	}
}

// TestEveryEventKindLaunchesOneAction pins the controller's dispatch
// table: every event kind has a telemetry label, and one publish on an
// idle controller launches exactly one action of the kind's mode, upgrade
// bit and degraded set. Host-scoped rows leave App empty and resolve it
// through AppsOn.
func TestEveryEventKindLaunchesOneAction(t *testing.T) {
	cases := []struct {
		ev       Event
		full     bool
		upgrade  bool
		degraded []overlay.ID
	}{
		{ev: Event{Kind: RateBelowThreshold, App: "a", Substreams: []int{0}}, full: true},
		{ev: Event{Kind: MemberDead, Host: host(7)}, degraded: []overlay.ID{host(7)}},
		{ev: Event{Kind: BreakerOpen, Host: host(7)}, degraded: []overlay.ID{host(7)}},
		{ev: Event{Kind: UpgradePossible, App: "a"}, full: true, upgrade: true},
		{ev: Event{Kind: FairShareChanged, App: "a"}, full: true, upgrade: true},
		{ev: Event{Kind: BoundaryLinkSaturated, App: "a"}, full: true},
		{ev: Event{Kind: RemoteCandidateLost, App: "a"}, full: true},
	}
	seen := map[EventKind]bool{}
	for _, tc := range cases {
		kind := tc.ev.Kind
		seen[kind] = true
		t.Run(kind.String(), func(t *testing.T) {
			if kind.String() == "unknown" {
				t.Fatalf("kind %d has no label", int(kind))
			}
			obs := &recObserver{}
			c, clk, act := newTestController(t, Config{Observer: obs})
			act.appsOn[host(7)] = []string{"a"}
			c.Publish(tc.ev)
			clk.advance(0)
			if len(act.calls) != 1 {
				t.Fatalf("calls = %+v, want exactly one", act.calls)
			}
			cl := act.calls[0]
			if cl.app != "a" || cl.full != tc.full || cl.upgrade != tc.upgrade {
				t.Fatalf("call = %+v, want app a full=%v upgrade=%v", cl, tc.full, tc.upgrade)
			}
			if len(cl.degraded) != len(tc.degraded) {
				t.Fatalf("degraded = %v, want %v", cl.degraded, tc.degraded)
			}
			for _, id := range tc.degraded {
				if !cl.degraded[id] {
					t.Fatalf("degraded = %v, want %v", cl.degraded, tc.degraded)
				}
			}
			mode := "incremental"
			if tc.full {
				mode = "full"
			}
			var launches []obsRecord
			for _, r := range obs.records {
				if r.kind == "launch" {
					launches = append(launches, r)
				}
			}
			if len(launches) != 1 || launches[0].mode != mode || launches[0].upgrade != tc.upgrade {
				t.Fatalf("launches = %+v, want one %s upgrade=%v", launches, mode, tc.upgrade)
			}
		})
	}
	// The table covers every kind: the first value past it has no label.
	for k := EventKind(0); k.String() != "unknown"; k++ {
		if !seen[k] {
			t.Errorf("event kind %s missing from the dispatch table test", k)
		}
	}
}

func TestRateEventWithoutCulpritGoesFull(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: RateBelowThreshold, App: "a", Substreams: []int{1}})
	clk.advance(0)
	if len(act.calls) != 1 || !act.calls[0].full {
		t.Fatalf("calls = %+v, want one full recompose", act.calls)
	}
}

func TestRateEventWithCulpritGoesIncremental(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: RateBelowThreshold, App: "a", Host: host(5), Substreams: []int{2, 0}})
	clk.advance(0)
	if len(act.calls) != 1 || act.calls[0].full {
		t.Fatalf("calls = %+v, want one incremental", act.calls)
	}
	if got := act.calls[0].subs; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("substreams = %v, want sorted [0 2]", got)
	}
}

func TestInfeasibleDeltaFallsBackToFullRecompose(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	clk.advance(0)
	act.finish(t, fmt.Errorf("substream 0: %w", core.ErrNoFeasiblePlacement))
	if len(act.calls) != 2 || !act.calls[1].full || act.calls[1].upgrade {
		t.Fatalf("calls = %+v, want fallback full recompose", act.calls)
	}
	act.finish(t, nil)
	if len(act.calls) != 2 {
		t.Fatalf("calls after fallback = %+v, want 2", act.calls)
	}
	if st := c.AppStatuses()[0]; st.Inflight || st.Backoff != 0 || st.CooldownRemaining == 0 {
		t.Fatalf("status after fallback success = %+v", st)
	}
}

func TestFailureReArmsWithBackoff(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	clk.advance(0)
	act.finish(t, errors.New("instantiate RPC failed"))
	if len(act.calls) != 1 {
		t.Fatalf("retry launched synchronously")
	}
	// Each failure doubles the wait from retryBackoff until it caps at
	// maxRetryBackoff.
	want := retryBackoff
	for i := 0; i < 7; i++ {
		if got := c.AppStatuses()[0].Backoff; got != want {
			t.Fatalf("failure %d: backoff = %v, want %v", i+1, got, want)
		}
		clk.advance(want - time.Millisecond)
		if len(act.calls) != i+1 {
			t.Fatalf("failure %d: retried before its %v backoff elapsed", i+1, want)
		}
		clk.advance(time.Millisecond)
		if len(act.calls) != i+2 {
			t.Fatalf("failure %d: no retry after %v backoff: %d calls", i+1, want, len(act.calls))
		}
		act.finish(t, errors.New("still failing"))
		if want *= 2; want > maxRetryBackoff {
			want = maxRetryBackoff
		}
	}
	if want != maxRetryBackoff {
		t.Fatalf("backoff never reached its cap: %v", want)
	}
	clk.advance(want)
	cl := act.finish(t, nil)
	if !cl.degraded[host(1)] {
		t.Fatalf("retry lost the degraded set: %+v", cl)
	}
	if st := c.AppStatuses()[0]; st.Backoff != 0 {
		t.Fatalf("backoff after success = %v, want reset", st.Backoff)
	}
}

func TestEventsDuringBackoffWaitDoNotLaunch(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	clk.advance(0)
	act.finish(t, errors.New("instantiate RPC failed"))
	// Fresh events while the retry timer is armed must not launch ahead of
	// the backoff — that would pace a failing app at the event rate.
	c.Publish(Event{Kind: RateBelowThreshold, App: "a", Host: host(5), Substreams: []int{0}})
	clk.advance(0)
	if len(act.calls) != 1 {
		t.Fatalf("level-triggered event launched during backoff wait: %d calls", len(act.calls))
	}
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(2)})
	clk.advance(0)
	if len(act.calls) != 1 {
		t.Fatalf("edge-triggered event launched during backoff wait: %d calls", len(act.calls))
	}
	clk.advance(retryBackoff)
	if len(act.calls) != 2 {
		t.Fatalf("backoff retry never launched: %d calls", len(act.calls))
	}
	// The retry carries the original degraded host plus the latched
	// edge-triggered one; the level-triggered event was dropped (the
	// periodic check will republish it if the condition persists).
	cl := act.calls[1]
	if !cl.degraded[host(1)] || !cl.degraded[host(2)] || cl.degraded[host(5)] {
		t.Fatalf("merged work = %+v, want degraded {1,2} without 5", cl)
	}
}

func TestSingleFlightMergesConcurrentWork(t *testing.T) {
	c, clk, act := newTestController(t, Config{Cooldown: 5 * time.Second})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	clk.advance(0)
	// Second failure while the first reallocation is still in flight.
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(2)})
	clk.advance(0)
	if len(act.calls) != 1 {
		t.Fatalf("in-flight app got a concurrent reallocation: %d calls", len(act.calls))
	}
	act.finish(t, nil)
	// Merged pending work launches only after the cooldown.
	clk.advance(4 * time.Second)
	if len(act.calls) != 1 {
		t.Fatal("pending work launched inside cooldown")
	}
	clk.advance(time.Second + time.Millisecond)
	if len(act.calls) != 2 {
		t.Fatalf("pending work never launched: %d calls", len(act.calls))
	}
	cl := act.calls[1]
	if !cl.degraded[host(2)] {
		t.Fatalf("merged work lost host 2: %+v", cl)
	}
}

func TestGlobalConcurrencyLimit(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	apps := make([]string, maxConcurrent+1)
	for i := range apps {
		apps[i] = fmt.Sprintf("app%d", i)
		c.Publish(Event{Kind: MemberDead, App: apps[i], Host: host(1)})
	}
	clk.advance(0)
	if len(act.calls) != maxConcurrent {
		t.Fatalf("calls = %+v, want the first %d apps in flight", act.calls, maxConcurrent)
	}
	last := apps[maxConcurrent]
	for _, st := range c.AppStatuses() {
		if st.Inflight == (st.App == last) || st.Pending != (st.App == last) {
			t.Fatalf("status = %+v, want only %s waiting", st, last)
		}
	}
	act.finish(t, nil)
	if len(act.calls) != maxConcurrent+1 || act.calls[maxConcurrent].app != last {
		t.Fatalf("freed slot not handed to %s: %+v", last, act.calls)
	}
}

func TestUpgradeEventsDoNotRaceInFlightUpgrade(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	for i := 0; i < 3; i++ {
		c.Publish(Event{Kind: UpgradePossible, App: "a"})
		clk.advance(0)
	}
	if len(act.calls) != 1 {
		t.Fatalf("duplicate upgrade attempts: %d", len(act.calls))
	}
	if !act.calls[0].full || !act.calls[0].upgrade {
		t.Fatalf("call = %+v, want full upgrade recompose", act.calls[0])
	}
}

func TestLevelTriggeredEventsAreNotLatched(t *testing.T) {
	// A rate event observed while a reallocation is in flight describes
	// the dip that reallocation is already fixing; latching it would
	// trigger a spurious full recompose after the cooldown.
	c, clk, act := newTestController(t, Config{Cooldown: 5 * time.Second})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	clk.advance(0)
	c.Publish(Event{Kind: RateBelowThreshold, App: "a"})
	clk.advance(0)
	act.finish(t, nil)
	clk.advance(time.Minute)
	if len(act.calls) != 1 {
		t.Fatalf("dropped rate event still launched work: %d calls", len(act.calls))
	}
}

func TestUnknownAppStopsRetrying(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	clk.advance(0)
	act.finish(t, ErrUnknownApp)
	clk.advance(time.Minute)
	if len(act.calls) != 1 {
		t.Fatalf("unknown app retried: %d calls", len(act.calls))
	}
	if sts := c.AppStatuses(); len(sts) != 0 {
		t.Fatalf("unknown app still tracked: %+v", sts)
	}
}

func TestCloseStopsProcessing(t *testing.T) {
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	c.Close()
	clk.advance(0)
	if len(act.calls) != 0 {
		t.Fatalf("closed controller still acted: %+v", act.calls)
	}
	c.Publish(Event{Kind: MemberDead, App: "a", Host: host(1)})
	clk.advance(0)
	if len(act.calls) != 0 {
		t.Fatal("publish after close acted")
	}
}
