// Package clock abstracts time so protocol code (overlay maintenance, RPC
// timeouts, monitoring windows) runs identically on the virtual clock of the
// network simulator and on the wall clock of a live deployment.
package clock

import (
	"sync"
	"time"

	"rasc.dev/rasc/internal/netsim"
)

// Clock supplies the current time and one-shot timers.
type Clock interface {
	// Now returns time elapsed since an arbitrary fixed origin.
	Now() time.Duration
	// After runs fn once d has elapsed and returns the timer's handle,
	// whose Stop keeps fn from running. Stopping after the timer fired, or
	// twice, is a no-op; so is stopping the zero Timer.
	After(d time.Duration, fn func()) Timer
	// Resolution is the shortest wait the clock's timers keep: a timer
	// asked for less may still fire that late. Code that models time
	// finer than this (a processing span, a source tick) keeps the
	// modelled instant itself instead of arming a timer for it.
	Resolution() time.Duration
}

// Timer is the handle of a timer armed by Clock.After, held by value. A
// simulator timer is its netsim handle; any other clock's timer is what
// that clock stops it with (a *time.Timer for Real). The zero Timer is
// unarmed.
type Timer struct {
	sim  netsim.Timer
	stop Stopper
}

// Stopper stops a timer of a clock other than the simulator's, the way
// (*time.Timer).Stop does.
type Stopper interface{ Stop() bool }

// StopWith returns the handle of a timer that s stops.
func StopWith(s Stopper) Timer { return Timer{stop: s} }

// Stop keeps the timer's callback from running if it has not run yet.
func (t Timer) Stop() {
	t.sim.Stop()
	if t.stop != nil {
		t.stop.Stop()
	}
}

// Sim adapts a netsim.Simulator to the Clock interface. It must only be
// used from within the simulator's event loop.
type Sim struct {
	S *netsim.Simulator
}

// Now returns the simulator's virtual time.
func (c Sim) Now() time.Duration { return c.S.Now() }

// After schedules fn on the simulator after d of virtual time. It
// allocates nothing.
func (c Sim) After(d time.Duration, fn func()) Timer { return Timer{sim: c.S.Timer(d, fn)} }

// Resolution is 0: a virtual timer fires at exactly the instant asked for.
func (c Sim) Resolution() time.Duration { return 0 }

// Real is a wall-clock implementation backed by the time package.
// It is safe for concurrent use.
type Real struct {
	once   sync.Once
	origin time.Time
}

// NewReal returns a wall clock whose origin is the moment of creation.
func NewReal() *Real {
	r := &Real{}
	r.init()
	return r
}

func (r *Real) init() {
	r.once.Do(func() { r.origin = time.Now() })
}

// Now returns time elapsed since the clock was created.
func (r *Real) Now() time.Duration {
	r.init()
	return time.Since(r.origin)
}

// After runs fn on its own goroutine once d has elapsed.
func (r *Real) After(d time.Duration, fn func()) Timer {
	return StopWith(time.AfterFunc(d, fn))
}

// Resolution is one millisecond. An idle Go process sleeps in the network
// poller, whose wait is counted in whole milliseconds, so a timer shorter
// than that fires on the next millisecond tick. Measured on three live
// nodes over loopback TCP (2 cores, Linux): a 20 µs processing span slept
// on a timer took ≈ 0.7 ms per hop, a shard ran about one span per
// millisecond, and at 2000 units/s per substream the relays dropped units
// for laxity until attainment was 0.44–0.55.
func (r *Real) Resolution() time.Duration { return time.Millisecond }
