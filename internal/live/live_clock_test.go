package live

import (
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
)

// scaledClock runs a base clock at a multiple of real time: Now advances
// scale× faster and timers fire after wall-duration d/scale. Injecting it
// into Config.Clock proves the off-loop waits (join handshake, submit
// drain) run on the node's clock rather than raw time.After.
type scaledClock struct {
	base  clock.Clock
	scale int64
}

func (c scaledClock) Now() time.Duration { return c.base.Now() * time.Duration(c.scale) }

func (c scaledClock) After(d time.Duration, fn func()) clock.Timer {
	real := d / time.Duration(c.scale)
	if real <= 0 {
		real = time.Nanosecond
	}
	return c.base.After(real, fn)
}

func (c scaledClock) Resolution() time.Duration { return 0 }

func TestLiveJoinTimeoutRunsOnInjectedClock(t *testing.T) {
	// A 30-second join timeout against an unreachable bootstrap. Under the
	// old time.After implementation this test would block for the full 30
	// wall-seconds; on the injected 100× clock it must give up in ~300ms.
	start := time.Now()
	_, err := Start(Config{
		Listen:      "127.0.0.1:0",
		Name:        "live-clock-test",
		Bootstrap:   "127.0.0.1:1", // reserved port, nothing listens
		JoinTimeout: 30 * time.Second,
		Clock:       scaledClock{base: clock.NewReal(), scale: 100},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("join against unreachable bootstrap succeeded")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("expected join timeout error, got: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("join timeout took %v wall time; the wait is not running on the injected clock", elapsed)
	}
}
