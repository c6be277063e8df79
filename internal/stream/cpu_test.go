package stream_test

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
)

// heavyCatalog is a CPU-bound workload: 40ms per unit at reference speed,
// so a 0.6-speed node saturates its CPU at 15 units/sec.
func heavyCatalog() services.Catalog {
	return services.Catalog{
		"crunch": spec.ServiceDef{Name: "crunch", ProcPerUnit: 40 * time.Millisecond, RateRatio: 1, BytesRatio: 1},
	}
}

// cpuSystem builds a deployment where bandwidth is plentiful but CPU is
// the scarce resource.
func cpuSystem(seed int64) *deploy.System {
	return deploy.NewSystem(deploy.SystemOptions{
		Nodes:            10,
		Seed:             seed,
		Catalog:          heavyCatalog(),
		ServiceNames:     []string{"crunch"},
		ServicesPerNode:  1,
		HeterogeneousCPU: true,
		ProcJitter:       0.1,
	})
}

// runCPU submits one heavy request with the given composer and returns the
// total laxity+queue drops across the system plus the delivered fraction.
func runCPU(t *testing.T, composerName string, seed int64) (drops int64, delivered float64) {
	t.Helper()
	s := cpuSystem(seed)
	// Warm the CPU monitors: submit a small pilot stream so busy
	// fractions are measured before the real composition.
	pilot := spec.Request{
		ID:         "pilot",
		UnitBytes:  1250,
		Substreams: []spec.Substream{{Services: []string{"crunch"}, Rate: 4}},
	}
	composer, err := core.ByName(composerName)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	s.Engines[0].Submit(pilot, composer, 10*time.Second, func(*core.ExecutionGraph, error) { done = true })
	for i := 0; i < 100 && !done; i++ {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)

	req := spec.Request{
		ID:         "heavy",
		UnitBytes:  1250,
		Substreams: []spec.Substream{{Services: []string{"crunch"}, Rate: 20}},
	}
	done = false
	var submitErr error
	s.Engines[1].Submit(req, composer, 10*time.Second, func(_ *core.ExecutionGraph, err error) {
		done = true
		submitErr = err
	})
	for i := 0; i < 100 && !done; i++ {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if submitErr != nil {
		t.Skipf("%s rejected the heavy request on seed %d: %v", composerName, seed, submitErr)
	}
	s.Sim.RunUntil(s.Sim.Now() + 20*time.Second)
	for _, e := range s.Engines {
		drops += e.DropsLaxity + e.DropsQueueFull
	}
	sink := s.Engines[1].Sink("heavy", 0)
	emitted := s.Engines[1].Throughput("heavy", 0).EmittedUnits
	if emitted > 0 {
		delivered = float64(sink.Received) / float64(emitted)
	}
	return drops, delivered
}

// TestCPUAwareCompositionReducesCPUDrops compares RASC with and without
// the multi-resource extension on a CPU-bound workload: the CPU-aware
// composer must lose no more units to deadline/queue drops than the
// bandwidth-only composer, and should deliver at least as well on
// average. (The paper names multiple resource constraints as future
// work; this test pins the implementation's benefit.)
func TestCPUAwareCompositionHelps(t *testing.T) {
	var plainDrops, cpuDrops int64
	var plainDelivered, cpuDelivered float64
	runs := 0
	for seed := int64(1); seed <= 4; seed++ {
		pd, pf := runCPU(t, "mincost", seed)
		cd, cf := runCPU(t, "mincost-cpu", seed)
		plainDrops += pd
		cpuDrops += cd
		plainDelivered += pf
		cpuDelivered += cf
		runs++
	}
	if runs == 0 {
		t.Skip("no comparable runs")
	}
	if cpuDrops > plainDrops {
		t.Fatalf("CPU-aware composition dropped more: %d vs %d", cpuDrops, plainDrops)
	}
	if cpuDelivered < plainDelivered-0.05*float64(runs) {
		t.Fatalf("CPU-aware delivered fraction regressed: %.3f vs %.3f (sum over %d runs)",
			cpuDelivered, plainDelivered, runs)
	}
}
