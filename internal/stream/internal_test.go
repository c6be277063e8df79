package stream

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

func TestSplitterProportions(t *testing.T) {
	s := newSplitter([]outSpec{
		{ToStage: 1, Rate: 6},
		{ToStage: 1, Rate: 4},
	})
	counts := [2]int{}
	for i := 0; i < 1000; i++ {
		out := s.next()
		if out.Rate == 6 {
			counts[0]++
		} else {
			counts[1]++
		}
	}
	if counts[0] != 600 || counts[1] != 400 {
		t.Fatalf("split = %v, want exact 600/400", counts)
	}
}

func TestSplitterSingleTarget(t *testing.T) {
	s := newSplitter([]outSpec{{ToStage: 2, Rate: 5}})
	for i := 0; i < 10; i++ {
		if out := s.next(); out == nil || out.ToStage != 2 {
			t.Fatal("single-target splitter misrouted")
		}
	}
}

func TestSplitterEmpty(t *testing.T) {
	if newSplitter(nil).next() != nil {
		t.Fatal("empty splitter must return nil")
	}
	if newSplitter([]outSpec{{Rate: 0}}).next() != nil {
		t.Fatal("zero-rate splitter must return nil")
	}
}

// Property: over n×k units, each target receives its share ±1 regardless
// of the weight mix.
func TestSplitterShareProperty(t *testing.T) {
	prop := func(weights []uint8) bool {
		var outs []outSpec
		total := 0.0
		for _, w := range weights {
			if w == 0 {
				continue
			}
			outs = append(outs, outSpec{Rate: float64(w)})
			total += float64(w)
		}
		if len(outs) == 0 {
			return true
		}
		s := newSplitter(outs)
		counts := make(map[*outSpec]int)
		iterations := int(total) * 10
		for i := 0; i < iterations; i++ {
			counts[s.next()]++
		}
		for i := range outs {
			want := float64(iterations) * outs[i].Rate / total
			got := float64(counts[&outs[i]])
			if math.Abs(got-want) > 1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSinkMetrics(t *testing.T) {
	s := newSink("r", 0, 2, 100*time.Millisecond, 100*time.Millisecond, 0)
	// First unit at t=1s, created at 0.4s: delay 600ms, counted timely.
	s.observe(dataMsg{Seq: 0, Created: 400 * time.Millisecond}, time.Second)
	// Second unit exactly on time.
	s.observe(dataMsg{Seq: 1, Created: 500 * time.Millisecond}, 1100*time.Millisecond)
	// Third unit 150ms late: jitter accrues, not timely (slack 100ms).
	s.observe(dataMsg{Seq: 2, Created: 600 * time.Millisecond}, 1350*time.Millisecond)
	// Fourth unit out of order (seq 1 again... use seq 1 < maxSeq 2).
	s.observe(dataMsg{Seq: 1, Created: 700 * time.Millisecond}, 1400*time.Millisecond)
	if s.Received != 4 {
		t.Fatalf("Received = %d", s.Received)
	}
	if s.OutOfOrder != 1 {
		t.Fatalf("OutOfOrder = %d", s.OutOfOrder)
	}
	if s.Timely != 2 {
		t.Fatalf("Timely = %d, want 2 (first + on-time)", s.Timely)
	}
	if s.TotalJitter != 150*time.Millisecond {
		t.Fatalf("TotalJitter = %v", s.TotalJitter)
	}
	if got := s.MeanDelay(); got <= 0 {
		t.Fatalf("MeanDelay = %v", got)
	}
	if f := s.OutOfOrderFraction(); f != 0.25 {
		t.Fatalf("OutOfOrderFraction = %g", f)
	}
	if f := s.TimelyFraction(); f != 0.5 {
		t.Fatalf("TimelyFraction = %g", f)
	}
}

func TestSinkPlayoutArithmetic(t *testing.T) {
	// Period 100ms, playout delay 300ms. First unit (seq 0) arrives at
	// 1s → playback of seq k at 1.3s + k*100ms.
	s := newSink("r", 0, 1, 100*time.Millisecond, 100*time.Millisecond, 300*time.Millisecond)
	s.observe(dataMsg{Seq: 0}, 1000*time.Millisecond)
	s.observe(dataMsg{Seq: 1}, 1100*time.Millisecond) // deadline 1.4s: fine
	s.observe(dataMsg{Seq: 2, Created: 0}, 1500*time.Millisecond)
	// Seq 2's deadline was 1.5s; arriving exactly at it is fine.
	if s.Stalls != 0 {
		t.Fatalf("Stalls = %d, want 0 so far", s.Stalls)
	}
	// Seq 3's deadline is 1.6s; arriving at 2.0s stalls and rebases:
	// new deadline(k) = 2.3s + (k-3)*100ms.
	s.observe(dataMsg{Seq: 3}, 2000*time.Millisecond)
	if s.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", s.Stalls)
	}
	// Seq 4 deadline 2.4s: arriving at 2.35s is fine after the rebase.
	s.observe(dataMsg{Seq: 4}, 2350*time.Millisecond)
	if s.Stalls != 1 {
		t.Fatalf("Stalls = %d after rebase, want 1", s.Stalls)
	}
	// Seq 5 deadline 2.5s: arriving at 2.6s stalls again.
	s.observe(dataMsg{Seq: 5}, 2600*time.Millisecond)
	if s.Stalls != 2 {
		t.Fatalf("Stalls = %d, want 2", s.Stalls)
	}
	if Snapshot(s).Stalls != 2 {
		t.Fatal("snapshot missing stalls")
	}
}

func TestSinkPlayoutDisabled(t *testing.T) {
	s := newSink("r", 0, 1, 100*time.Millisecond, 100*time.Millisecond, 0)
	s.observe(dataMsg{Seq: 0}, time.Second)
	s.observe(dataMsg{Seq: 1}, 10*time.Second) // hugely late
	if s.Stalls != 0 {
		t.Fatal("playout disabled must never stall")
	}
}

func TestSinkEmpty(t *testing.T) {
	s := newSink("r", 0, 1, time.Second, time.Second, 0)
	if s.MeanDelay() != 0 || s.MeanJitter() != 0 || s.TimelyFraction() != 0 || s.OutOfOrderFraction() != 0 {
		t.Fatal("empty sink must report zeros")
	}
}

func TestSnapshotCopies(t *testing.T) {
	s := newSink("r", 0, 1, time.Second, time.Second, 0)
	s.observe(dataMsg{Seq: 0}, time.Second)
	snap := Snapshot(s)
	if snap.Received != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestComponentKey(t *testing.T) {
	if componentKey("req", 1, 2) != "req/1/2" {
		t.Fatalf("componentKey = %q", componentKey("req", 1, 2))
	}
	if itoa(-42) != "-42" || itoa(0) != "0" || itoa(123) != "123" {
		t.Fatal("itoa broken")
	}
}

func TestGraphOuts(t *testing.T) {
	host := func(s string) overlay.NodeInfo {
		return overlay.NodeInfo{ID: overlay.HashID(s), Addr: "sim://x"}
	}
	g := &core.ExecutionGraph{
		Request: spec.Request{ID: "r", UnitBytes: 100, Substreams: []spec.Substream{
			{Services: []string{"a"}, Rate: 5},
		}},
		Edges: []core.Edge{
			{Substream: 0, FromStage: -1, ToStage: 0, From: host("src"), To: host("h1"), Rate: 3},
			{Substream: 0, FromStage: -1, ToStage: 0, From: host("src"), To: host("h2"), Rate: 2},
			{Substream: 0, FromStage: 0, ToStage: 1, From: host("h1"), To: host("dst"), Rate: 3},
			{Substream: 0, FromStage: 0, ToStage: 1, From: host("h2"), To: host("dst"), Rate: 2},
		},
	}
	plan := planGraph(g, nil)
	if len(plan.sourceOuts[0]) != 2 {
		t.Fatalf("source outs = %v", plan.sourceOuts)
	}
	key1 := placementKey{0, 0, host("h1").ID}
	if len(plan.outs[key1]) != 1 || plan.outs[key1][0].Rate != 3 {
		t.Fatalf("placement outs = %v", plan.outs[key1])
	}
}
