package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"rasc.dev/rasc/internal/spec"
)

// The request sequences are generated here, from the seed, and not by
// internal/workload: a change to that package must not silently change what
// the benchmark measures. The program under test receives only the
// spec.Requests built below.

// plannedApp is one generated submission: which node originates it and the
// request it submits.
type plannedApp struct {
	Origin int          `json:"origin"`
	Req    spec.Request `json:"req"`
}

// standardServices are the ten unit-ratio services of services.Standard(),
// in its stable (sorted) order. Listed here so that the generated chains do
// not move if the catalog's iteration order ever does.
var standardServices = []string{
	"aggregate", "analyze", "annotate", "compress", "encrypt",
	"filter", "join", "project", "transcode", "watermark",
}

// streamApp is the fixed application of sim-stream and sim-stream-batched:
// 8 substreams, each filter→project→annotate at 100 units/s, 1250 B units.
// Only its origin depends on the seed.
func streamApp(rng *rand.Rand, id string, nodes int) plannedApp {
	req := spec.Request{ID: id, UnitBytes: 1250}
	for i := 0; i < 8; i++ {
		req.Substreams = append(req.Substreams, spec.Substream{
			Services: []string{"filter", "project", "annotate"}, Rate: 100,
		})
	}
	return plannedApp{Origin: rng.Intn(nodes), Req: req}
}

// chain draws n distinct services in random order.
func chain(rng *rand.Rand, n int) []string {
	perm := rng.Perm(len(standardServices))[:n]
	out := make([]string, n)
	for i, k := range perm {
		out[i] = standardServices[k]
	}
	return out
}

// composeApp is one sim-compose submission: 1–2 substreams, each a chain of
// 2–5 distinct services at 5 units/s. Origins go round-robin (k is the
// cycle's index) so every node's view of the overlay is exercised.
func composeApp(rng *rand.Rand, id string, k, nodes int) plannedApp {
	req := spec.Request{ID: id, UnitBytes: 1250}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		req.Substreams = append(req.Substreams, spec.Substream{
			Services: chain(rng, 2+rng.Intn(4)), Rate: 5,
		})
	}
	return plannedApp{Origin: k % nodes, Req: req}
}

// contendedApp is one sim-contended tenant: one substream of 2–4 services
// at 5–15 units/s, with a priority class drawn 1:2:1
// (critical:standard:best-effort).
func contendedApp(rng *rand.Rand, id string, k, nodes int) plannedApp {
	req := spec.Request{ID: id, UnitBytes: 1250}
	req.Substreams = []spec.Substream{{Services: chain(rng, 2+rng.Intn(3)), Rate: 5 + rng.Intn(11)}}
	switch rng.Intn(4) {
	case 0:
		req.Priority = spec.Critical
	case 3:
		req.Priority = spec.BestEffort
	}
	return plannedApp{Origin: k % nodes, Req: req}
}

// liveRequest is the live-loopback application: substreams × relay-a→relay-b at
// rate units/s, 1000 B units, always from node 0.
func liveRequest(id string, substreams, rate int) spec.Request {
	req := spec.Request{ID: id, UnitBytes: 1000}
	for i := 0; i < substreams; i++ {
		req.Substreams = append(req.Substreams, spec.Substream{
			Services: []string{"relay-a", "relay-b"}, Rate: rate,
		})
	}
	return req
}

// segmentSeed derives the seed of one segment's deployment and requests.
// Every segment is a fresh deployment, so one run pools several topologies.
func segmentSeed(seed int64, segment int) int64 { return seed*1000 + int64(segment) + 1 }

// plan generates the submissions of one segment of a simulator workload,
// cycle by cycle, in submission order.
func (w *simWorkload) plan(seed int64, segment int) [][]plannedApp {
	segSeed := segmentSeed(seed, segment)
	rng := rand.New(rand.NewSource(segSeed ^ 0x62656e6368)) // "bench"
	// A contended cycle is sized to its deployment: apps are drawn until
	// their hop-weighted demand (each unit crosses services+1 access links)
	// reaches loadTarget of the topology's aggregate access capacity, so
	// every seed is equally oversubscribed whatever capacities it drew.
	budget := 0.0
	if w.loadTarget > 0 {
		topo := w.topology(segSeed)
		for i := range topo.UpBps {
			budget += w.loadTarget * math.Min(topo.UpBps[i], topo.DownBps[i])
		}
	}
	out := make([][]plannedApp, w.cycles)
	k := 0
	for c := range out {
		for demand := 0.0; len(out[c]) < w.apps && (budget == 0 || demand < budget); k++ {
			p := w.gen(rng, fmt.Sprintf("%s-%d-%d", w.short, segment, k), k, w.nodes)
			for _, ss := range p.Req.Substreams {
				demand += p.Req.BitsPerSecond(ss.Rate) * float64(len(ss.Services)+1)
			}
			out[c] = append(out[c], p)
		}
	}
	return out
}

// planHash is a stable digest of a generated request list; a test pins it
// for seed 1 so the inputs cannot drift unnoticed.
func planHash(apps [][]plannedApp) string {
	b, err := json.Marshal(apps)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
