package tenant

import (
	"sync"
	"testing"
	"time"

	"rasc.dev/rasc/internal/spec"
)

// stepClock is a manually fired clock.Clock for the coalescing tests:
// timers collect until fire() runs them (outside any caller lock, like
// the real and simulated clocks).
type stepClock struct {
	mu     sync.Mutex
	now    time.Duration
	timers []func()
}

func (c *stepClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) After(d time.Duration, fn func()) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timers = append(c.timers, fn)
	return func() {}
}

func (c *stepClock) Resolution() time.Duration { return 0 }

// fire runs every pending timer once.
func (c *stepClock) fire() {
	c.mu.Lock()
	pending := c.timers
	c.timers = nil
	c.mu.Unlock()
	for _, fn := range pending {
		fn()
	}
}

func (c *stepClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// TestGateDeadbandSuppressesSmallMoves pins the fair-share deadband: cap
// moves within the relative band are suppressed (and counted), a move
// beyond it sweeps.
func TestGateDeadbandSuppressesSmallMoves(t *testing.T) {
	rec := newRecorder()
	g := NewGate(Config{CapacityBps: 1000, MinShareFraction: 0.1, FairShareDeadband: 0.2})
	g.Admit("a", spec.BestEffort, 1000, rec)
	g.Admit("b", spec.BestEffort, 1000, rec)
	g.Admit("c", spec.BestEffort, 1000, rec)
	rec.mu.Lock()
	rec.caps = map[string]float64{} // discard admission-time churn
	rec.mu.Unlock()
	base := g.Stats()

	// +5% capacity: the water level moves 5% < 20% — no notifications,
	// three suppressed updates counted, caps unchanged.
	g.SetCapacity(1050)
	rec.mu.Lock()
	notified := len(rec.caps)
	rec.mu.Unlock()
	if notified != 0 {
		t.Fatalf("deadband leaked %d notifications", notified)
	}
	st := g.Stats()
	if got := st.CoalescedCapEvents - base.CoalescedCapEvents; got != 3 {
		t.Fatalf("suppressed events = %d, want 3", got)
	}
	if cap, _ := g.CapBps("a"); cap < 333 || cap > 334 {
		t.Fatalf("a's cap %v moved inside the deadband", cap)
	}
	// The same move without a deadband notifies all three: the band, not
	// the size of the move, kept them quiet.
	plainRec := newRecorder()
	plain := NewGate(Config{CapacityBps: 1000, MinShareFraction: 0.1})
	for _, app := range []string{"a", "b", "c"} {
		plain.Admit(app, spec.BestEffort, 1000, plainRec)
	}
	plainRec.mu.Lock()
	plainRec.caps = map[string]float64{}
	plainRec.mu.Unlock()
	plain.SetCapacity(1050)
	plainRec.mu.Lock()
	notified = len(plainRec.caps)
	plainRec.mu.Unlock()
	if notified != 3 || plain.Stats().CoalescedCapEvents != 0 {
		t.Fatalf("without a deadband: %d notifications, %d suppressed; want 3 and 0",
			notified, plain.Stats().CoalescedCapEvents)
	}

	// Doubling the capacity is far outside the band: everyone is swept
	// to the new exact share.
	g.SetCapacity(2100)
	rec.mu.Lock()
	aCap, ok := rec.caps["a"]
	rec.mu.Unlock()
	if !ok {
		t.Fatal("no notification after a beyond-deadband move")
	}
	if aCap != 700 {
		t.Fatalf("announced cap %v, want 700", aCap)
	}
	if cap, _ := g.CapBps("a"); cap != 700 {
		t.Fatalf("held cap %v, want 700", cap)
	}
}

// TestGateCoalescingCollapsesBursts pins the coalescing window: a burst
// of recomputes inside one window produces one deferred sweep, and each
// tenant at most one notification carrying the final cap.
func TestGateCoalescingCollapsesBursts(t *testing.T) {
	clk := &stepClock{}
	rec := newRecorder()
	g := NewGate(Config{
		CapacityBps:       1200,
		MinShareFraction:  0.1,
		CapCoalesceWindow: 50 * time.Millisecond,
		Clock:             clk,
	})
	g.Admit("a", spec.BestEffort, 1200, rec)

	// Burst: three more joins inside the window. Each join's own cap
	// arrives synchronously in its Decision; a's fan-out is deferred.
	g.Admit("b", spec.BestEffort, 1200, rec)
	g.Admit("c", spec.BestEffort, 1200, rec)
	g.Admit("d", spec.BestEffort, 1200, rec)
	rec.mu.Lock()
	preFire := len(rec.caps)
	rec.mu.Unlock()
	if preFire != 0 {
		t.Fatalf("%d notifications delivered before the window closed", preFire)
	}
	if clk.pending() != 1 {
		t.Fatalf("%d sweeps scheduled, want 1 (burst collapsed)", clk.pending())
	}
	st := g.Stats()
	if st.CoalescedCapEvents < 2 {
		t.Fatalf("coalesced events = %d, want ≥ 2 (two merged recomputes)", st.CoalescedCapEvents)
	}

	// The deferred sweep delivers one notification per moved tenant with
	// the final (not any intermediate) cap.
	clk.fire()
	rec.mu.Lock()
	caps := make(map[string]float64, len(rec.caps))
	for app, c := range rec.caps {
		caps[app] = c
	}
	rec.mu.Unlock()
	if caps["a"] != 300 {
		t.Fatalf("a's coalesced cap %v, want 300 (final share)", caps["a"])
	}
	for app, c := range caps {
		if held, _ := g.CapBps(app); held != c {
			t.Fatalf("%s announced %v but holds %v", app, c, held)
		}
	}
	if clk.pending() != 0 {
		t.Fatalf("sweep rescheduled itself: %d pending", clk.pending())
	}

	// The next structural change opens a fresh window.
	g.Release("d")
	if clk.pending() != 1 {
		t.Fatalf("release did not schedule a new sweep: %d pending", clk.pending())
	}
	clk.fire()
	if cap, _ := g.CapBps("a"); cap != 400 {
		t.Fatalf("a's cap %v after release sweep, want 400", cap)
	}
}

// TestGateCoalescingNeverDefersPreemption pins the carve-out: preemption
// and promotion notices are delivered synchronously even inside a
// coalescing window — only cap refreshes wait.
func TestGateCoalescingNeverDefersPreemption(t *testing.T) {
	clk := &stepClock{}
	rec := newRecorder()
	g := NewGate(Config{
		CapacityBps:       10000,
		MinShareFraction:  0.5,
		CapCoalesceWindow: 50 * time.Millisecond,
		Clock:             clk,
	})
	g.Admit("be", spec.BestEffort, 9000, rec)
	g.Admit("crit", spec.Critical, 16000, rec)
	rec.mu.Lock()
	preempted := append([]string(nil), rec.preempted...)
	rec.mu.Unlock()
	if len(preempted) != 1 || preempted[0] != "be" {
		t.Fatalf("preempted %v before window close, want [be]", preempted)
	}
	g.Release("crit")
	rec.mu.Lock()
	promoted := append([]string(nil), rec.promoted...)
	rec.mu.Unlock()
	if len(promoted) != 1 || promoted[0] != "be" {
		t.Fatalf("promoted %v before window close, want [be]", promoted)
	}
}
