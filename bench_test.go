package rasc

// Benchmark harness regenerating every figure of the paper's evaluation
// (§4.2, Figures 6–11) plus micro-benchmarks of the substrates and
// ablation benches for the design choices called out in DESIGN.md.
//
// Figure benches run a reduced sweep (one seed per iteration, all four
// rates, all three composers) and report the headline metric as a custom
// benchmark unit; run `go test -bench Figure -benchtime 1x -v` to also see
// the full tables, or use cmd/rasc-bench for the full five-seed sweep.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/experiment"
	"rasc.dev/rasc/internal/mincostflow"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/sched"
	"rasc.dev/rasc/internal/simnet"
	"rasc.dev/rasc/internal/simplex"
	"rasc.dev/rasc/internal/spec"
)

// benchSweep runs a one-seed sweep and returns the results.
func benchSweep(b *testing.B, seed int64, composers []string) *experiment.Results {
	b.Helper()
	cfg := experiment.Config{
		Seeds:      []int64{seed},
		Composers:  composers,
		MeasureFor: 20 * time.Second,
	}
	res, err := experiment.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// figureBench runs the sweep b.N times and reports the figure's mincost
// value at 200 Kbps as the headline metric.
func figureBench(b *testing.B, fig int, unit string) {
	var last *experiment.Results
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, int64(i+1), nil)
	}
	t, err := last.Figure(fig)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(t.Get("mincost", 200), unit)
	if testing.Verbose() {
		b.Logf("\n%s", t)
	}
}

func BenchmarkFigure6ComposedRequests(b *testing.B) { figureBench(b, 6, "requests@200k") }
func BenchmarkFigure7EndToEndDelay(b *testing.B)    { figureBench(b, 7, "ms@200k") }
func BenchmarkFigure8DeliveredFraction(b *testing.B) {
	figureBench(b, 8, "frac@200k")
}
func BenchmarkFigure9TimelyFraction(b *testing.B) { figureBench(b, 9, "frac@200k") }
func BenchmarkFigure10OutOfOrder(b *testing.B)    { figureBench(b, 10, "frac@200k") }
func BenchmarkFigure11Jitter(b *testing.B)        { figureBench(b, 11, "ms@200k") }

// --- Ablation benches (design choices from DESIGN.md §5) ---

// BenchmarkAblationNoSplit isolates the value of rate splitting: RASC's
// composer restricted to one instance per service, same workload.
func BenchmarkAblationNoSplit(b *testing.B) {
	var last *experiment.Results
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, int64(i+1), []string{"mincost", "mincost-nosplit"})
	}
	t, err := last.Figure(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(t.Get("mincost", 200), "split@200k")
	b.ReportMetric(t.Get("mincost-nosplit", 200), "nosplit@200k")
	if testing.Verbose() {
		b.Logf("\n%s", t)
	}
}

// BenchmarkAblationFIFO isolates the laxity scheduler: the full system
// with FIFO node queues instead of least-laxity-first.
func BenchmarkAblationFIFO(b *testing.B) {
	var lastLLF, lastFIFO float64
	for i := 0; i < b.N; i++ {
		for _, policy := range []string{"llf", "fifo"} {
			cfg := experiment.Config{
				Seeds:       []int64{int64(i + 1)},
				Rates:       []int{15},
				Composers:   []string{"mincost"},
				SchedPolicy: policy,
				MeasureFor:  20 * time.Second,
			}
			res, err := experiment.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			t, _ := res.Figure(9)
			if policy == "llf" {
				lastLLF = t.Get("mincost", 150)
			} else {
				lastFIFO = t.Get("mincost", 150)
			}
		}
	}
	b.ReportMetric(lastLLF, "timely-llf")
	b.ReportMetric(lastFIFO, "timely-fifo")
}

// BenchmarkAblationStaleStats isolates the value of continuous monitoring
// (§3.2: "it is essential to use feedback"): RASC composing against
// monitoring reports cached for 60 virtual seconds vs fresh reports.
func BenchmarkAblationStaleStats(b *testing.B) {
	var fresh, stale float64
	for i := 0; i < b.N; i++ {
		for _, age := range []time.Duration{0, 60 * time.Second} {
			cfg := experiment.Config{
				Seeds:       []int64{int64(i + 1)},
				Rates:       []int{15},
				Composers:   []string{"mincost"},
				StatsMaxAge: age,
				MeasureFor:  20 * time.Second,
			}
			res, err := experiment.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			t, _ := res.Figure(8)
			if age == 0 {
				fresh = t.Get("mincost", 150)
			} else {
				stale = t.Get("mincost", 150)
			}
		}
	}
	b.ReportMetric(fresh, "delivered-fresh")
	b.ReportMetric(stale, "delivered-stale60s")
}

// BenchmarkMultiResource isolates the multi-resource extension (the
// paper's future work): a CPU-bound workload on heterogeneous CPUs, the
// bandwidth-only composer vs. the CPU-aware one, comparing delivered
// fractions.
func BenchmarkMultiResource(b *testing.B) {
	run := func(composerName string, seed int64) float64 {
		catalog := map[string]spec.ServiceDef{
			"crunch": {Name: "crunch", ProcPerUnit: 40 * time.Millisecond, RateRatio: 1, BytesRatio: 1},
		}
		sys := deploy.NewSystem(deploy.SystemOptions{
			Nodes:            10,
			Seed:             seed,
			Catalog:          catalog,
			ServiceNames:     []string{"crunch"},
			ServicesPerNode:  1,
			HeterogeneousCPU: true,
			ProcJitter:       0.1,
		})
		composer, err := core.ByName(composerName)
		if err != nil {
			b.Fatal(err)
		}
		// A pilot stream warms the CPU monitors, then the heavy one.
		for i, r := range []struct {
			id   string
			rate int
		}{{"pilot", 4}, {"heavy", 20}} {
			done := false
			req := spec.Request{
				ID:         r.id,
				UnitBytes:  1250,
				Substreams: []spec.Substream{{Services: []string{"crunch"}, Rate: r.rate}},
			}
			sys.Engines[i].Submit(req, composer, 10*time.Second, func(*core.ExecutionGraph, error) { done = true })
			for j := 0; j < 100 && !done; j++ {
				sys.Sim.RunUntil(sys.Sim.Now() + 100*time.Millisecond)
			}
			sys.Sim.RunUntil(sys.Sim.Now() + 10*time.Second)
		}
		sink := sys.Engines[1].Sink("heavy", 0)
		emitted := sys.Engines[1].Throughput("heavy", 0).EmittedUnits
		if sink == nil || emitted == 0 {
			return 0
		}
		return float64(sink.Received) / float64(emitted)
	}
	var plain, cpu float64
	for i := 0; i < b.N; i++ {
		plain = run("mincost", int64(i+1))
		cpu = run("mincost-cpu", int64(i+1))
	}
	b.ReportMetric(plain, "delivered-bw-only")
	b.ReportMetric(cpu, "delivered-cpu-aware")
}

// BenchmarkComposeLP compares the LP composer against the flow composer
// on the same sweep (ratio-1 services: both must deliver the requirement;
// LP additionally enforces exact per-node budgets).
func BenchmarkComposeLP(b *testing.B) {
	var last *experiment.Results
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, int64(i+1), []string{"mincost", "lp"})
	}
	t, err := last.Figure(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(t.Get("mincost", 150), "flow@150k")
	b.ReportMetric(t.Get("lp", 150), "lp@150k")
}

// --- Substrate micro-benchmarks ---

func BenchmarkMinCostFlowSolve(b *testing.B) {
	build := func() (*mincostflow.Graph, int, int) {
		g := mincostflow.NewGraph(2 + 3*16*2)
		next := 2
		prevOuts := []int{0}
		for stage := 0; stage < 3; stage++ {
			var outs []int
			for k := 0; k < 16; k++ {
				in, out := next, next+1
				next += 2
				g.AddArc(in, out, int64(10+k), int64(k*1000))
				for _, p := range prevOuts {
					g.AddArc(p, in, 1<<30, 0)
				}
				outs = append(outs, out)
			}
			prevOuts = outs
		}
		for _, p := range prevOuts {
			g.AddArc(p, 1, 1<<30, 0)
		}
		return g, 0, 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, s, t := build()
		if _, err := g.MinCostFlow(s, t, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := simplex.NewMinimize(make([]float64, 40))
		row := make([]float64, 40)
		for j := range row {
			row[j] = 1
		}
		p.AddConstraint(row, simplex.EQ, 100)
		for j := 0; j < 40; j++ {
			r := make([]float64, 40)
			r[j] = 1
			p.AddConstraint(r, simplex.LE, float64(3+j%7))
		}
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostCompose(b *testing.B) {
	in := benchComposeInput(16, 3, 20)
	m := &core.MinCost{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compose(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPCompose(b *testing.B) {
	in := benchComposeInput(8, 2, 10)
	m := core.LP{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compose(in); err != nil {
			b.Fatal(err)
		}
	}
}

func benchComposeInput(hosts, stages, rate int) core.Input {
	mk := func(i int) overlay.NodeInfo {
		return overlay.NodeInfo{ID: overlay.HashID(fmt.Sprintf("h%d", i)), Addr: "sim://x"}
	}
	chain := make([]string, stages)
	for j := range chain {
		chain[j] = fmt.Sprintf("s%d", j)
	}
	in := core.Input{
		Request: spec.Request{
			ID: "bench", UnitBytes: 1250,
			Substreams: []spec.Substream{{Services: chain, Rate: rate}},
		},
		Source:       mk(1000),
		Dest:         mk(1001),
		SourceReport: monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		DestReport:   monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		Candidates:   map[string][]core.Candidate{},
		Rand:         rand.New(rand.NewSource(1)),
	}
	var cands []core.Candidate
	for h := 0; h < hosts; h++ {
		cands = append(cands, core.Candidate{
			Info:   mk(h),
			Report: monitor.Report{InBpsCap: 2e5, OutBpsCap: 2e5, DropRatio: float64(h%5) * 0.01},
		})
	}
	for _, svc := range chain {
		in.Candidates[svc] = cands
	}
	return in
}

func BenchmarkPastryRoute(b *testing.B) {
	c := simnet.New(simnet.Options{N: 32, Seed: 1})
	for _, n := range c.Nodes {
		n.Register("bench", func(overlay.ID, overlay.NodeInfo, []byte) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := overlay.HashID(fmt.Sprintf("bench-key-%d", i))
		c.Nodes[i%32].Route(key, "bench", nil)
		c.Sim.Run()
	}
}

func BenchmarkSchedulerLLF(b *testing.B) {
	q := sched.NewLLF(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Microsecond
		q.Push(&sched.Unit{
			ComponentKey: "c",
			Deadline:     now + time.Duration(i%100)*time.Millisecond,
			ExecTime:     time.Millisecond,
			Enqueued:     now,
		})
		if i%4 == 3 {
			q.Next(now)
		}
	}
}

func BenchmarkSimulatorEvents(b *testing.B) {
	s := netsim.New(1)
	b.ResetTimer()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			s.Schedule(time.Microsecond, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run()
}

func BenchmarkEndToEndStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := NewSimulated(Options{Nodes: 16, Seed: int64(i + 1)})
		req := Request{
			ID:         "bench",
			UnitBytes:  1250,
			Substreams: []Substream{{Services: []string{"filter", "transcode"}, Rate: 10}},
		}
		comp, err := sys.Submit(0, req, ComposerMinCost)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(10 * time.Second)
		if comp.Stats().Received == 0 {
			b.Fatal("nothing delivered")
		}
	}
}
