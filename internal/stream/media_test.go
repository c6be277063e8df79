package stream_test

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/spec"
)

func TestVBRSourceVariesSizesAroundMean(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 10, Seed: 51})
	req := spec.Request{
		ID:        "vbr",
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{"filter"}, Rate: 20, Burstiness: 0.5},
		},
	}
	submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 30*time.Second)
	// Mean emitted size must stay near UnitBytes while individual sizes
	// vary: check via the byte counter.
	emitted := s.Engines[0].Throughput("vbr", 0).EmittedUnits
	bytes := s.Engines[0].Throughput("vbr", 0).EmittedBytes
	if emitted < 400 {
		t.Fatalf("emitted only %d units", emitted)
	}
	mean := float64(bytes) / float64(emitted)
	if mean < 1100 || mean > 1400 {
		t.Fatalf("mean unit size %.0f outside [1100,1400]", mean)
	}
}

func TestCBRSourceExactSizes(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 10, Seed: 52})
	req := simpleRequest("cbr", 10, "filter")
	submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	emitted := s.Engines[0].Throughput("cbr", 0).EmittedUnits
	bytes := s.Engines[0].Throughput("cbr", 0).EmittedBytes
	if bytes != emitted*1250 {
		t.Fatalf("CBR bytes = %d for %d units, want exact multiples of 1250", bytes, emitted)
	}
}

func TestPlayoutNoStallsOnHealthyStream(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 53})
	req := spec.Request{
		ID:           "smooth",
		UnitBytes:    1250,
		PlayoutDelay: 2 * time.Second, // generous buffer
		Substreams: []spec.Substream{
			{Services: []string{"filter"}, Rate: 10},
		},
	}
	submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 30*time.Second)
	sink := s.Engines[0].Sink("smooth", 0)
	if sink.Received < 200 {
		t.Fatalf("received only %d", sink.Received)
	}
	if sink.Stalls != 0 {
		t.Fatalf("healthy stream stalled %d times with a 2s buffer", sink.Stalls)
	}
}

func TestPlayoutStallsAfterDeliveryGap(t *testing.T) {
	// Kill the pipeline mid-stream, then restore delivery by adaptation:
	// the gap forces at least one rebuffering stall once units resume.
	// Simpler and deterministic: drive a synthetic gap through the
	// engine-level API is not possible, so the arithmetic itself is
	// pinned by TestSinkPlayoutArithmetic (internal); here we assert the
	// tight-buffer case accrues stalls under congestion.
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes: 10, Seed: 54,
		// Tight access links so the competing streams congest them.
		Topology:         netsim.PlanetLabTopology(netsim.TopologyConfig{Nodes: 10, MinBps: 2.6e5, MaxBps: 6e5}, 54),
		MaxLinkBacklog:   300 * time.Millisecond,
		CongestionJitter: 1.0,
	})
	req := spec.Request{
		ID:           "stally",
		UnitBytes:    1250,
		PlayoutDelay: 20 * time.Millisecond, // buffer far below jitter
		Substreams: []spec.Substream{
			{Services: []string{"filter", "transcode", "analyze"}, Rate: 20, Burstiness: 0.5},
		},
	}
	submit(t, s, 0, req, &core.MinCost{})
	// Add three competing streams to congest the pipeline hosts.
	for i := 1; i <= 3; i++ {
		bg := spec.Request{
			ID:        "bg-" + string(rune('0'+i)),
			UnitBytes: 1250,
			Substreams: []spec.Substream{
				{Services: []string{"filter", "transcode"}, Rate: 20},
			},
		}
		done := false
		s.Engines[i].Submit(bg, &core.MinCost{}, 10*time.Second, func(*core.ExecutionGraph, error) { done = true })
		for j := 0; j < 100 && !done; j++ {
			s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
		}
	}
	s.Sim.RunUntil(s.Sim.Now() + 30*time.Second)
	sink := s.Engines[0].Sink("stally", 0)
	if sink.Received == 0 {
		t.Fatal("nothing delivered")
	}
	if sink.Stalls == 0 {
		t.Fatalf("no stalls with a 20ms buffer under congestion (received %d)", sink.Received)
	}
}

func TestStatsCacheServesBoundedAge(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes: 8, Seed: 56,
		StatsMaxAge: 10 * time.Second,
	})
	// Load node 1 so its fresh report would differ over time.
	req := simpleRequest("cacheload", 10, "filter")
	submit(t, s, 0, req, &core.MinCost{})
	// Fetch node 1's stats twice within the cache window: identical
	// bytes mean the cache answered.
	var first, second []byte
	node := s.Engines[0].Node()
	target := s.Engines[1].Node()
	node.Request(target.Addr(), "stats", nil, 5*time.Second, func(b []byte, err error) { first = b })
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
	node.Request(target.Addr(), "stats", nil, 5*time.Second, func(b []byte, err error) { second = b })
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
	if first == nil || second == nil {
		t.Fatal("stats fetch failed")
	}
	if string(first) != string(second) {
		t.Fatal("reports within the max-age window must be byte-identical (cached)")
	}
	// After the window, the report refreshes (its At field advances).
	s.Sim.RunUntil(s.Sim.Now() + 11*time.Second)
	var third []byte
	node.Request(target.Addr(), "stats", nil, 5*time.Second, func(b []byte, err error) { third = b })
	s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
	if string(third) == string(first) {
		t.Fatal("report did not refresh after the max age elapsed")
	}
}

func TestPlayoutModelUnit(t *testing.T) {
	// Direct unit test of the playback model via the integration seam:
	// period 100ms, playout delay 300ms.
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 8, Seed: 55})
	req := spec.Request{
		ID:           "pm",
		UnitBytes:    1250,
		PlayoutDelay: 300 * time.Millisecond,
		Substreams:   []spec.Substream{{Services: []string{"filter"}, Rate: 10}},
	}
	submit(t, s, 0, req, &core.MinCost{})
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	sink := s.Engines[0].Sink("pm", 0)
	if sink.PlayoutDelay != 300*time.Millisecond {
		t.Fatalf("PlayoutDelay = %v", sink.PlayoutDelay)
	}
}
