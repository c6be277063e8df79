package deploy

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
)

// paperRegimeDigests are the FNV-64a digests of the segments
// TestPaperRegimeGolden runs, by seed. One changes exactly when a simulated
// outcome of the paper regime moves: a unit's fate, a flow's counts, a
// submit's first-unit instant.
var paperRegimeDigests = []struct {
	seed   int64
	digest string
}{
	{3, "d03fef3b4770946c"},
	{6, "8d03466b29c2cdd6"},
}

// TestPaperRegimeGolden runs one short segment of the paper's evaluation
// regime — a proximity-aware overlay on slow PlanetLab-like links with
// bounded link backlog and congestion jitter, the admission gate and the
// adaptation control plane on — and pins every flow's emitted, delivered
// and dropped counts and every submit's first-unit instant. A change that
// claims to leave the simulation alone (a faster event queue, a cheaper
// overlay bookkeeping rule) must leave this digest alone too.
func TestPaperRegimeGolden(t *testing.T) {
	for _, tc := range paperRegimeDigests {
		if got := paperRegimeSegment(t, tc.seed); got != tc.digest {
			t.Errorf("seed %d: paper-regime digest %s, want %s: a simulated outcome moved", tc.seed, got, tc.digest)
		}
	}
}

// paperRegimeSegment submits 30 apps of mixed priority 400 ms apart to a
// 32-node deployment built from seed, streams for 10 s more, and returns
// the digest of every submit's verdict and first-unit instant and every
// flow's counts on every engine.
func paperRegimeSegment(t *testing.T, seed int64) string {
	t.Helper()
	const (
		nodes = 32
		apps  = 30
	)
	s := NewSystem(SystemOptions{
		Nodes: nodes, Seed: seed,
		Topology:         netsim.PlanetLabTopology(netsim.TopologyConfig{Nodes: nodes, MinBps: 1.5e5, MaxBps: 1.2e6}, seed),
		MaxLinkBacklog:   300 * time.Millisecond,
		CongestionJitter: 0.5,
		ProcJitter:       0.2,
		HeterogeneousCPU: true,
		Tenancy:          &tenant.Config{},
		Adaptation:       &stream.AdaptationConfig{},
	})
	rng := rand.New(rand.NewSource(seed))
	names := services.Standard().Names()
	priorities := []spec.Priority{spec.Standard, spec.Critical, spec.BestEffort}

	type app struct {
		req    spec.Request
		origin int
		done   bool
		err    error
		first  time.Duration // -1 until every sink has a unit
	}
	var all []*app
	submit := func(k int) {
		req := spec.Request{ID: fmt.Sprintf("g%02d", k), UnitBytes: 1000, Priority: priorities[rng.Intn(len(priorities))]}
		for l := 0; l < 1+rng.Intn(2); l++ {
			perm := rng.Perm(len(names))[:2+rng.Intn(3)]
			svcs := make([]string, len(perm))
			for i, p := range perm {
				svcs[i] = names[p]
			}
			req.Substreams = append(req.Substreams, spec.Substream{Services: svcs, Rate: 5 + rng.Intn(11)})
		}
		a := &app{req: req, origin: rng.Intn(nodes), first: -1}
		all = append(all, a)
		s.Engines[a.origin].Submit(req, &core.MinCost{}, 10*time.Second, func(_ *core.ExecutionGraph, err error) {
			a.done, a.err = true, err
		})
	}
	// poll notes, to the millisecond, when each composed app has had a
	// unit at every sink.
	poll := func() {
		for _, a := range all {
			if a.first >= 0 || !a.done || a.err != nil {
				continue
			}
			every := true
			for l := range a.req.Substreams {
				if sk := s.Engines[a.origin].Sink(a.req.ID, l); sk == nil || sk.Received == 0 {
					every = false
				}
			}
			if every {
				a.first = s.Sim.Now()
			}
		}
	}
	step := func(until time.Duration) {
		for s.Sim.Now() < until {
			s.Sim.RunUntil(s.Sim.Now() + time.Millisecond)
			poll()
		}
	}
	for k := 0; k < apps; k++ {
		submit(k)
		step(s.Sim.Now() + 400*time.Millisecond)
	}
	step(s.Sim.Now() + 10*time.Second)

	h := fnv.New64a()
	composed, firsts := 0, 0
	for _, a := range all {
		verdict := "ok"
		if a.err != nil {
			verdict = a.err.Error()
		} else if a.done {
			composed++
		}
		if a.first >= 0 {
			firsts++
		}
		fmt.Fprintf(h, "%s %d %t %s %d\n", a.req.ID, a.origin, a.done, verdict, a.first)
	}
	var emitted, delivered, dropped int64
	for i, e := range s.Engines {
		flows := e.Throughputs()
		sort.Slice(flows, func(a, b int) bool {
			if flows[a].Req != flows[b].Req {
				return flows[a].Req < flows[b].Req
			}
			return flows[a].Substream < flows[b].Substream
		})
		for _, f := range flows {
			fmt.Fprintf(h, "%d %s/%d %d %d %d\n", i, f.Req, f.Substream, f.EmittedUnits, f.DeliveredUnits, f.DroppedUnits)
			emitted += f.EmittedUnits
			delivered += f.DeliveredUnits
			dropped += f.DroppedUnits
		}
	}
	digest := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("seed %d: %d apps, %d composed, %d with a first unit; %d emitted, %d delivered, %d dropped; digest %s",
		seed, len(all), composed, firsts, emitted, delivered, dropped, digest)
	if composed == 0 || delivered == 0 || dropped == 0 {
		t.Errorf("seed %d is not in the paper regime: %d composed, %d delivered, %d dropped", seed, composed, delivered, dropped)
	}
	return digest
}
