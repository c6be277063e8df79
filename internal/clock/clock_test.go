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
	timer := c.After(time.Second, func() { fired = true })
	timer.Stop()
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	// A stopped simulator timer keeps its place: the clock still reaches
	// its instant.
	if c.Now() != time.Second {
		t.Fatalf("clock at %v after a stopped 1s timer, want 1s", c.Now())
	}
	// Stopping twice, and after the event would have fired, is a no-op.
	timer.Stop()
}

// The zero Timer is unarmed: Stop on it does nothing.
func TestZeroTimerStopIsNoop(t *testing.T) {
	var timer Timer
	timer.Stop()
	timer.Stop()
}

// A simulator timer allocates nothing: After adds no closure around the
// callback, the handle is a value and the simulator keeps the stop mark in
// its queue.
func TestSimClockAfterAllocations(t *testing.T) {
	s := netsim.New(1)
	c := Sim{S: s}
	fn := func() {}
	c.After(0, fn)
	s.Run() // the queue has room from here on
	if allocs := testing.AllocsPerRun(1000, func() {
		c.After(time.Millisecond, fn).Stop()
		c.After(time.Millisecond, fn)
		s.Run()
	}); allocs != 0 {
		t.Fatalf("After allocates %v times per two timers, want 0", allocs)
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
	timer := r.After(50*time.Millisecond, func() { fired.Store(true) })
	timer.Stop()
	time.Sleep(80 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
	timer.Stop() // twice: a no-op
}

// Stopping a wall-clock timer after it fired is a no-op.
func TestRealClockStopAfterFire(t *testing.T) {
	r := NewReal()
	done := make(chan struct{})
	timer := r.After(time.Millisecond, func() { close(done) })
	<-done
	timer.Stop()
	timer.Stop()
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
