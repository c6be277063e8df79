package stream

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
)

// statsReplyAllocs is how many heap allocations serving one stats digest
// may cost: the reply body, whatever the host runs.
const statsReplyAllocs = 1

// TestStatsReplyAllocationsIndependentOfComponents serves the stats digest
// from a host running 1 and 50 components: the reply is built from the
// node-level windows alone, so both cost the same, small number of
// allocations.
func TestStatsReplyAllocationsIndependentOfComponents(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{1, 50} {
		e := newGatherRig(t, 1).engines[0]
		for i := 0; i < n; i++ {
			key := componentKey("r", 0, i)
			for at := time.Duration(0); at < 3*time.Millisecond; at += time.Millisecond {
				e.Monitor.ObserveArrival(key, "a", at, 1250)
				e.Monitor.ObserveProcessed(key, "a", 100*time.Microsecond)
			}
		}
		var body []byte
		counts[n] = testing.AllocsPerRun(100, func() {
			e.onStats(overlay.NodeInfo{}, nil, func(b []byte, _ string) { body = b })
		})
		if _, err := monitor.ParseDigest(body); err != nil {
			t.Fatalf("%d components: reply is not a digest: %v", n, err)
		}
	}
	t.Logf("allocations per stats reply: %v (by component count)", counts)
	if counts[1] != counts[50] || counts[50] > statsReplyAllocs {
		t.Fatalf("allocations per stats reply = %v by component count, want the same at most %d", counts, statsReplyAllocs)
	}
}
