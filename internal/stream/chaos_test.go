package stream_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/workload"
)

// TestChaosSoak drives a deployment through randomized submissions,
// teardowns and node failures for several virtual minutes, checking
// system-level invariants along the way: the simulator stays live, sinks
// never report impossible statistics, and torn-down requests release
// their components everywhere.
func TestChaosSoak(t *testing.T) {
	const nodes = 20
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes:          nodes,
		Seed:           99,
		MaxLinkBacklog: 300 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(1234))
	gen := workload.NewGenerator(workload.Config{
		Services:      services.Standard().Names(),
		MaxSubstreams: 2,
	}, 77)

	type liveApp struct {
		origin int
		graph  *core.ExecutionGraph
		req    spec.Request
	}
	var apps []liveApp
	dead := map[int]bool{}
	admitted, rejected, torn, kills := 0, 0, 0, 0

	for round := 0; round < 60; round++ {
		action := rng.Intn(10)
		switch {
		case action < 6: // submit a new request from a live node
			origin := rng.Intn(nodes)
			if dead[origin] {
				break
			}
			req := gen.Next()
			done := false
			var graph *core.ExecutionGraph
			s.Engines[origin].Submit(req, &core.MinCost{}, 8*time.Second, func(g *core.ExecutionGraph, err error) {
				done = true
				graph = g
			})
			for i := 0; i < 300 && !done; i++ {
				s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
			}
			if graph != nil {
				admitted++
				apps = append(apps, liveApp{origin: origin, graph: graph, req: req})
			} else {
				rejected++
			}
		case action < 8: // tear an application down
			if len(apps) == 0 {
				break
			}
			i := rng.Intn(len(apps))
			app := apps[i]
			if !dead[app.origin] {
				s.Engines[app.origin].Teardown(app.graph, 5*time.Second)
				torn++
			}
			apps = append(apps[:i], apps[i+1:]...)
		default: // kill a node (at most a quarter of the deployment)
			if kills >= nodes/4 {
				break
			}
			victim := 1 + rng.Intn(nodes-1) // keep node 0 alive
			if !dead[victim] {
				dead[victim] = true
				s.Kill(victim)
				kills++
			}
		}
		s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)

		// Invariants on every live application's statistics.
		for _, app := range apps {
			if dead[app.origin] {
				continue
			}
			for l := range app.req.Substreams {
				sink := s.Engines[app.origin].Sink(app.req.ID, l)
				if sink == nil {
					continue
				}
				emitted := s.Engines[app.origin].Throughput(app.req.ID, l).EmittedUnits
				if sink.Received > emitted {
					t.Fatalf("round %d: %s/%d received %d > emitted %d",
						round, app.req.ID, l, sink.Received, emitted)
				}
				if sink.Timely > sink.Received || sink.OutOfOrder > sink.Received {
					t.Fatalf("round %d: impossible sink counters %+v", round, sink)
				}
			}
		}
	}
	if admitted == 0 {
		t.Fatal("chaos run admitted nothing")
	}
	t.Logf("chaos: admitted=%d rejected=%d torndown=%d kills=%d virtual=%v",
		admitted, rejected, torn, kills, s.Sim.Now())

	// Drain in-flight control traffic, then verify live engines hold no
	// more components than the still-live applications account for.
	s.Sim.RunUntil(s.Sim.Now() + 10*time.Second)
	maxComponents := 0
	for _, app := range apps {
		for _, ss := range app.req.Substreams {
			// Splitting can at most double instances per stage in this
			// workload's capacity regime; use a generous bound.
			maxComponents += 4 * len(ss.Services)
		}
	}
	total := 0
	for i, e := range s.Engines {
		if dead[i] {
			continue
		}
		total += e.Components()
	}
	if total > maxComponents {
		t.Fatalf("component leak: %d live components for %d applications (bound %d)",
			total, len(apps), maxComponents)
	}
	// Determinism: a second identical run must produce identical totals.
	if testing.Short() {
		return
	}
	again := runChaosTotals(t)
	first := fmt.Sprintf("%d/%d/%d/%d", admitted, rejected, torn, kills)
	if again != first {
		t.Fatalf("chaos run not deterministic: %s vs %s", first, again)
	}
}

// runChaosTotals repeats the chaos schedule and returns its totals.
func runChaosTotals(t *testing.T) string {
	t.Helper()
	const nodes = 20
	s := deploy.NewSystem(deploy.SystemOptions{
		Nodes:          nodes,
		Seed:           99,
		MaxLinkBacklog: 300 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(1234))
	gen := workload.NewGenerator(workload.Config{
		Services:      services.Standard().Names(),
		MaxSubstreams: 2,
	}, 77)
	type liveApp struct {
		origin int
		graph  *core.ExecutionGraph
		req    spec.Request
	}
	var apps []liveApp
	dead := map[int]bool{}
	admitted, rejected, torn, kills := 0, 0, 0, 0
	for round := 0; round < 60; round++ {
		action := rng.Intn(10)
		switch {
		case action < 6:
			origin := rng.Intn(nodes)
			if dead[origin] {
				break
			}
			req := gen.Next()
			done := false
			var graph *core.ExecutionGraph
			s.Engines[origin].Submit(req, &core.MinCost{}, 8*time.Second, func(g *core.ExecutionGraph, err error) {
				done = true
				graph = g
			})
			for i := 0; i < 300 && !done; i++ {
				s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
			}
			if graph != nil {
				admitted++
				apps = append(apps, liveApp{origin: origin, graph: graph, req: req})
			} else {
				rejected++
			}
		case action < 8:
			if len(apps) == 0 {
				break
			}
			i := rng.Intn(len(apps))
			app := apps[i]
			if !dead[app.origin] {
				s.Engines[app.origin].Teardown(app.graph, 5*time.Second)
				torn++
			}
			apps = append(apps[:i], apps[i+1:]...)
		default:
			if kills >= nodes/4 {
				break
			}
			victim := 1 + rng.Intn(nodes-1)
			if !dead[victim] {
				dead[victim] = true
				s.Kill(victim)
				kills++
			}
		}
		s.Sim.RunUntil(s.Sim.Now() + 2*time.Second)
	}
	return fmt.Sprintf("%d/%d/%d/%d", admitted, rejected, torn, kills)
}
