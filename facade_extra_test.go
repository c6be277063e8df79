package rasc

import (
	"testing"
	"time"
)

func TestFacadeKillAndAdaptation(t *testing.T) {
	sys := New(WithNodes(12), WithSeed(31))
	sys.EnableAdaptation(0, 3*time.Second)
	req := Request{
		ID:         "facade-adapt",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter"}, Rate: 8}},
	}
	comp, err := sys.Submit(0, req, ComposerMinCost)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5 * time.Second)
	// Kill every non-origin host of the composition.
	for _, p := range comp.Placements() {
		for i := 1; i < sys.Nodes(); i++ {
			if sys.NodeAddr(i) == string(p.Host.Addr) {
				sys.Kill(i)
			}
		}
	}
	sys.Run(40 * time.Second)
	if sys.Recompositions(0) == 0 {
		t.Fatal("facade adaptation never re-composed")
	}
	before := comp.Stats().Received
	sys.Run(10 * time.Second)
	if comp.Stats().Received <= before {
		t.Fatal("no delivery after facade-level recovery")
	}
}

func TestFacadeTracing(t *testing.T) {
	sys := New(WithNodes(10), WithSeed(32))
	buf := sys.EnableTracing(50_000)
	req := Request{
		ID:         "facade-trace",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter", "compress"}, Rate: 6}},
	}
	if _, err := sys.Submit(0, req, ComposerMinCost); err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * time.Second)
	if buf.Total() == 0 {
		t.Fatal("no trace events")
	}
	if len(buf.StageLatencies("facade-trace", 0)) == 0 {
		t.Fatal("no stage latencies")
	}
}

func TestFacadePlayoutStats(t *testing.T) {
	sys := New(WithNodes(10), WithSeed(33))
	req := Request{
		ID:           "facade-playout",
		UnitBytes:    1250,
		PlayoutDelay: 2 * time.Second,
		Substreams:   []Substream{{Services: []string{"filter"}, Rate: 8}},
	}
	comp, err := sys.Submit(0, req, ComposerMinCost)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Second)
	s := comp.Stats()
	if s.Received == 0 {
		t.Fatal("nothing delivered")
	}
	if s.Stalls != 0 {
		t.Fatalf("generous playout buffer stalled %d times", s.Stalls)
	}
}

func TestFacadeCPUComposer(t *testing.T) {
	sys := New(WithNodes(12), WithSeed(34))
	req := Request{
		ID:         "facade-cpu",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"analyze"}, Rate: 5}},
	}
	comp, err := sys.Submit(0, req, ComposerMinCostCPU)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5 * time.Second)
	if comp.Stats().Received == 0 {
		t.Fatal("CPU-aware composer delivered nothing")
	}
}
