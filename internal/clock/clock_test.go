package clock

import (
	"sync/atomic"
	"testing"
	"time"

	"rasc.dev/rasc/internal/netsim"
)

func TestSimClockNow(t *testing.T) {
	s := netsim.New(1)
	c := Sim{S: s}
	if c.Now() != 0 {
		t.Fatalf("Now = %v", c.Now())
	}
	s.RunUntil(3 * time.Second)
	if c.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", c.Now())
	}
}

func TestSimClockAfter(t *testing.T) {
	s := netsim.New(1)
	c := Sim{S: s}
	fired := time.Duration(-1)
	c.After(time.Second, func() { fired = c.Now() })
	s.Run()
	if fired != time.Second {
		t.Fatalf("fired at %v, want 1s", fired)
	}
}

func TestSimClockCancel(t *testing.T) {
	s := netsim.New(1)
	c := Sim{S: s}
	fired := false
	cancel := c.After(time.Second, func() { fired = true })
	cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	// Cancelling twice (and after the event would have fired) is a no-op.
	cancel()
}

// A simulator timer costs at most its cancel function: After adds no
// closure around the callback, and the simulator keeps the cancellation
// mark in its queue.
func TestSimClockAfterAllocations(t *testing.T) {
	s := netsim.New(1)
	c := Sim{S: s}
	fn := func() {}
	c.After(0, fn)
	s.Run() // the queue has room from here on
	if allocs := testing.AllocsPerRun(1000, func() {
		c.After(time.Millisecond, fn)
		s.Run()
	}); allocs > 1 {
		t.Fatalf("After allocates %v times per timer, want ≤ 1", allocs)
	}
}

func TestRealClockMonotonic(t *testing.T) {
	r := NewReal()
	a := r.Now()
	time.Sleep(2 * time.Millisecond)
	b := r.Now()
	if b <= a {
		t.Fatalf("Now not increasing: %v then %v", a, b)
	}
}

func TestRealClockAfterFires(t *testing.T) {
	r := NewReal()
	var fired atomic.Bool
	done := make(chan struct{})
	r.After(5*time.Millisecond, func() {
		fired.Store(true)
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	if !fired.Load() {
		t.Fatal("timer never fired")
	}
}

func TestRealClockCancel(t *testing.T) {
	r := NewReal()
	var fired atomic.Bool
	cancel := r.After(50*time.Millisecond, func() { fired.Store(true) })
	cancel()
	time.Sleep(80 * time.Millisecond)
	if fired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

// The simulator's timers are exact; the wall clock's keep a millisecond.
func TestResolution(t *testing.T) {
	if got := (Sim{S: netsim.New(1)}).Resolution(); got != 0 {
		t.Errorf("Sim resolution = %v, want 0", got)
	}
	if got := NewReal().Resolution(); got != time.Millisecond {
		t.Errorf("Real resolution = %v, want 1ms", got)
	}
}

func TestRealZeroValueUsable(t *testing.T) {
	var r Real
	if r.Now() < 0 {
		t.Fatal("zero-value Real returned negative time")
	}
}
