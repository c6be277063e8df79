package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
)

// composeOracleDigest is the digest TestComposeOracleDigest computes over
// its corpus. It was computed once, before the composer's graph build
// stopped copying host identities into its edge buffer and moved its
// capacity state from maps to dense slices, and is never re-pinned: a
// different digest means a composed graph moved.
const composeOracleDigest = "7d7ecb557efad854287bba37f361c8c372d098a6e868a952c6ef3233d255343c"

// oracleInput builds one seeded corpus instance: 1–3 substreams of 2–5
// stages over services.Standard() or services.Extended(), 4–24 candidate
// hosts per service drawn from a shared pool (so hosts recur across
// stages and substreams), with random capacities, link utilisation, drop
// ratios and, on some hosts, CPU reports; the endpoints are outside the
// pool or pool hosts themselves.
func oracleInput(rng *rand.Rand) Input {
	catalog := services.Standard()
	if rng.Intn(2) == 0 {
		catalog = services.Extended()
	}
	names := catalog.Names()
	req := spec.Request{ID: "oracle", UnitBytes: 250 * (1 + rng.Intn(8))}
	for l := 1 + rng.Intn(3); l > 0; l-- {
		chain := make([]string, 2+rng.Intn(4))
		for j := range chain {
			chain[j] = names[rng.Intn(len(names))]
		}
		req.Substreams = append(req.Substreams, spec.Substream{Services: chain, Rate: 1 + rng.Intn(20)})
	}
	in := baseInput(req)
	in.Catalog = catalog
	in.Headroom = [...]float64{0, 0.8, 1}[rng.Intn(3)]
	in.SourceReport = oracleReport(rng, 20_000*kbit)
	in.DestReport = oracleReport(rng, 20_000*kbit)
	pool := make([]Candidate, 24+rng.Intn(16))
	for h := range pool {
		pool[h] = Candidate{Info: testHost(h), Report: oracleReport(rng, 500*kbit)}
	}
	for _, svc := range req.Services() {
		perm := rng.Perm(len(pool))[:4+rng.Intn(21)]
		cands := make([]Candidate, len(perm))
		for i, h := range perm {
			cands[i] = pool[h]
		}
		in.Candidates[svc] = cands
	}
	// The engine's origin is both the source and the destination, and
	// often a candidate too: a third of the inputs compose from one pool
	// host that way, a third between two pool hosts, so endpoint and
	// candidate budgets share a host.
	switch a, b := rng.Intn(len(pool)), rng.Intn(len(pool)); rng.Intn(3) {
	case 1:
		in.Source, in.SourceReport = pool[a].Info, pool[a].Report
		in.Dest, in.DestReport = in.Source, in.SourceReport
	case 2:
		in.Source, in.SourceReport = pool[a].Info, pool[a].Report
		in.Dest, in.DestReport = pool[b].Info, pool[b].Report
	}
	return in
}

// oracleReport draws a host report: capacities up to maxBps, up to 90 %
// of each link in use, a drop ratio on the monitor's 1/64 grid, and a CPU
// report on a third of the hosts.
func oracleReport(rng *rand.Rand, maxBps float64) monitor.Report {
	r := monitor.Report{
		InBpsCap:  maxBps * (0.05 + rng.Float64()),
		OutBpsCap: maxBps * (0.05 + rng.Float64()),
		DropRatio: float64(rng.Intn(24)) / 64,
	}
	r.InBpsUsed = r.InBpsCap * 0.9 * rng.Float64()
	r.OutBpsUsed = r.OutBpsCap * 0.9 * rng.Float64()
	if rng.Intn(3) == 0 {
		r.SpeedFactor = 0.25 + rng.Float64()
		r.CPUFraction = rng.Float64()
	}
	return r
}

// oracleHash feeds one composition outcome into h: the error text, or
// the graph's composer, rates, ordered placements and ordered edges
// (rates as IEEE 754 bit patterns), plus the solve statistics other than
// the wall-clock duration.
func oracleHash(h hash.Hash, g *ExecutionGraph, st *ComposeStats, err error) {
	var b []byte
	num := func(v int64) { b = binary.BigEndian.AppendUint64(b, uint64(v)) }
	rate := func(f float64) { b = binary.BigEndian.AppendUint64(b, math.Float64bits(f)) }
	id := func(n overlay.NodeInfo) { b = append(b, n.ID[:]...) }
	if err != nil {
		b = append(b, "err:"+err.Error()...)
	} else {
		b = append(b, g.Composer...)
		for _, ss := range g.Request.Substreams {
			num(int64(ss.Rate))
		}
		for _, p := range g.Placements {
			num(int64(p.Substream))
			num(int64(p.Stage))
			b = append(b, p.Service...)
			id(p.Host)
			rate(p.Rate)
		}
		for _, e := range g.Edges {
			num(int64(e.Substream))
			num(int64(e.FromStage))
			num(int64(e.ToStage))
			id(e.From)
			id(e.To)
			rate(e.Rate)
		}
	}
	for _, v := range [...]int{st.Substreams, st.Copied, st.Candidates, st.Nodes, st.Arcs, st.Iterations} {
		num(int64(v))
	}
	num(st.Flow)
	if st.Feasible {
		b = append(b, 1)
	}
	h.Write(b)
}

// TestComposeOracleDigest runs every MinCost variant core.Names() lists,
// and an incremental re-composition around one or two degraded hosts of
// the plain MinCost graph, over a seeded corpus, and compares one digest
// of every outcome with composeOracleDigest.
func TestComposeOracleDigest(t *testing.T) {
	var variants []Composer
	for _, name := range Names() {
		if strings.HasPrefix(name, "mincost") {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, c)
		}
	}
	h := sha256.New()
	composed, deltas, splits := 0, 0, 0
	const seeds = 600
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := oracleInput(rng)
		var prev *ExecutionGraph
		for _, c := range variants {
			in.Stats = &ComposeStats{}
			g, err := c.Compose(in)
			oracleHash(h, g, in.Stats, err)
			if err == nil {
				composed++
				if cerr := CheckGraph(g, in.Catalog); cerr != nil {
					t.Fatalf("seed %d %s: %v", seed, c.Name(), cerr)
				}
			}
			if c.Name() == "mincost" && err == nil {
				prev = g
				splits += len(g.Placements)
				for _, ss := range g.Request.Substreams {
					splits -= len(ss.Services)
				}
			}
		}
		if prev == nil {
			continue
		}
		degraded := map[overlay.ID]bool{}
		for i := 1 + rng.Intn(2); i > 0; i-- {
			degraded[prev.Placements[rng.Intn(len(prev.Placements))].Host.ID] = true
		}
		var affected []int
		if len(prev.Request.Substreams) > 1 && rng.Intn(2) == 0 {
			affected = []int{rng.Intn(len(prev.Request.Substreams))}
		}
		din := in
		din.Request = prev.Request
		din.Stats = &ComposeStats{}
		g, err := (&MinCost{}).ComposeDelta(din, prev, degraded, affected)
		oracleHash(h, g, din.Stats, err)
		if err == nil {
			deltas++
		}
	}
	t.Logf("%d of %d composes and %d delta composes succeeded; %d extra placements from rate splitting",
		composed, seeds*len(variants), deltas, splits)
	// The corpus must exercise both outcomes of both entry points, and
	// rate splitting.
	if composed < seeds || composed == seeds*len(variants) || deltas < 100 || splits < 300 {
		t.Fatalf("corpus too one-sided: %d composes and %d delta composes succeeded, %d split placements",
			composed, deltas, splits)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != composeOracleDigest {
		t.Fatalf("compose oracle digest %s, want %s: a composed graph moved", got, composeOracleDigest)
	}
}
