// Package experiment reproduces the evaluation of §4: it deploys a
// simulated 32-node system, submits randomly generated service requests
// with each composition algorithm at each requested rate, streams data for
// a measurement window, and aggregates the six figure metrics (composed
// requests, end-to-end delay, delivered fraction, timely fraction,
// out-of-order fraction, jitter) over multiple seeded runs.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/metrics"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/telemetry"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/workload"
)

// Config parameterizes a sweep. The zero value selects the paper's setup
// (scaled to simulation): 32 nodes, 10 services × 5 per node, requests of
// 2–5 services, rates 50–200 Kbps, 5 seeds, three composers.
type Config struct {
	Nodes     int
	Seeds     []int64
	Rates     []int // units/sec; 1 unit = UnitBytes*8 bits (default 10 kbit)
	Requests  int
	Composers []string

	SubmitGap  time.Duration // virtual time between submissions
	MeasureFor time.Duration // virtual streaming time after submissions

	UnitBytes        int
	MinBps, MaxBps   float64 // access-link capacity range
	MaxLinkBacklog   time.Duration
	CongestionJitter float64
	ProcJitter       float64
	SchedPolicy      string
	ServicesPerNode  int
	MinServices      int
	MaxServices      int
	MaxSubstreams    int
	// StatsSource selects where composition statistics come from:
	// "fetch" (default: per-host RPC snapshots at composition time),
	// "gossip" (monitoring digests disseminated by the membership
	// protocol, with RPC fallback until the view fills), or "stale"
	// (fetch against reports cached for StatsMaxAge — the
	// stale-statistics ablation; StatsMaxAge defaults to 30s).
	StatsSource string
	// StatsMaxAge makes nodes serve cached monitoring reports no
	// fresher than this (0 = always fresh): the stale-statistics
	// ablation.
	StatsMaxAge time.Duration
	// PoissonArrivals replaces the fixed submission gap with
	// exponentially distributed inter-arrival times of the same mean.
	PoissonArrivals bool
	// BackgroundFlows adds cross-traffic flows invisible to monitoring
	// (see deploy.SystemOptions).
	BackgroundFlows int
	// Adaptation, when set, enables the event-driven adaptation control
	// plane on every node of every run. Each run's decision traces land
	// in its RunStats.Decisions.
	Adaptation *stream.AdaptationConfig

	// Parallelism bounds how many (composer, rate, seed) cells run
	// concurrently: each cell is an independent simulated deployment, so
	// the sweep fans out across cores. 0 selects runtime.NumCPU(); 1
	// forces the serial path. The Runs ordering and every figure are
	// independent of the setting — each cell seeds its own RNGs and the
	// results land at fixed indices.
	Parallelism int

	// Progress, when set, receives one line per completed run. Under a
	// parallel sweep the callback is serialised but lines arrive in
	// completion order, not sweep order.
	Progress func(string)
}

func (c *Config) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 32
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if len(c.Rates) == 0 {
		c.Rates = []int{5, 10, 15, 20} // 50..200 Kbps
	}
	if c.Requests == 0 {
		c.Requests = 12
	}
	if len(c.Composers) == 0 {
		c.Composers = []string{"mincost", "greedy", "random"}
	}
	if c.SubmitGap == 0 {
		c.SubmitGap = 400 * time.Millisecond
	}
	if c.MeasureFor == 0 {
		c.MeasureFor = 30 * time.Second
	}
	if c.UnitBytes == 0 {
		c.UnitBytes = 1250 // 10 kbit: 1 unit/sec = 10 Kbps
	}
	if c.MinBps == 0 {
		c.MinBps = 1.5e5
	}
	if c.MaxBps == 0 {
		c.MaxBps = 1.2e6
	}
	if c.CongestionJitter == 0 {
		c.CongestionJitter = 0.5
	}
	if c.MaxLinkBacklog == 0 {
		c.MaxLinkBacklog = 300 * time.Millisecond
	}
	if c.ProcJitter == 0 {
		c.ProcJitter = 0.2
	}
	if c.ServicesPerNode == 0 {
		c.ServicesPerNode = 5
	}
	if c.MinServices == 0 {
		c.MinServices = 2
	}
	if c.MaxServices == 0 {
		c.MaxServices = 5
	}
	if c.MaxSubstreams == 0 {
		c.MaxSubstreams = 1
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
}

// RunStats aggregates one (composer, rate, seed) run.
type RunStats struct {
	Composer string
	Rate     int // units/sec per substream
	Seed     int64

	Submitted  int
	Composed   int
	Emitted    int64
	Received   int64
	Timely     int64
	OutOfOrder int64
	SumDelay   time.Duration
	SumJitter  time.Duration
	// SumComposeLatency accumulates the virtual time from submission to
	// composition completion over the composed requests (discovery +
	// statistics gathering + flow solving + instantiation).
	SumComposeLatency time.Duration
	// DelayP95Ms is the 95th-percentile end-to-end delay across every
	// delivered unit of the run.
	DelayP95Ms float64

	// Decisions is the run's adaptation decision log (empty unless
	// Config.Adaptation armed the control plane): every completed
	// reallocation's causal chain from trigger to convergence.
	Decisions []trace.Decision
}

// MeanConvergenceMs is the average trigger-to-convergence latency over the
// run's converged adaptation decisions, in milliseconds of virtual time
// (0 when none converged).
func (r RunStats) MeanConvergenceMs() float64 {
	var sum time.Duration
	n := 0
	for _, d := range r.Decisions {
		if d.Converged {
			sum += d.ConvergedAt - d.TriggeredAt
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Millisecond)
}

// MeanComposeLatencyMs is the average time to compose one admitted
// request, in milliseconds of virtual time.
func (r RunStats) MeanComposeLatencyMs() float64 {
	if r.Composed == 0 {
		return 0
	}
	return float64(r.SumComposeLatency) / float64(r.Composed) / float64(time.Millisecond)
}

// DeliveredFraction is the fraction of emitted units that reached their
// destination (Figure 8's metric).
func (r RunStats) DeliveredFraction() float64 {
	if r.Emitted == 0 {
		return 0
	}
	return float64(r.Received) / float64(r.Emitted)
}

// TimelyFraction is the fraction of delivered units that were timely
// (Figure 9).
func (r RunStats) TimelyFraction() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.Timely) / float64(r.Received)
}

// OutOfOrderFraction is the fraction of delivered units that arrived out
// of order (Figure 10).
func (r RunStats) OutOfOrderFraction() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.OutOfOrder) / float64(r.Received)
}

// MeanDelayMs is the average end-to-end delay in milliseconds (Figure 7).
func (r RunStats) MeanDelayMs() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.SumDelay) / float64(r.Received) / float64(time.Millisecond)
}

// MeanJitterMs is the average jitter in milliseconds (Figure 11).
func (r RunStats) MeanJitterMs() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.SumJitter) / float64(r.Received) / float64(time.Millisecond)
}

// Results is a completed sweep.
type Results struct {
	Config Config
	Runs   []RunStats
	// Telemetry is the process-wide runtime telemetry snapshot (Prometheus
	// text format) captured when the sweep finished — the same metric
	// catalogue a live node serves on /metrics, accumulated across every
	// simulated node of every run.
	Telemetry string
}

// Run executes the full sweep. Cells — one per (rate, composer, seed)
// triple — fan out across cfg.Parallelism workers; each cell builds its
// own simulated deployment, so runs share nothing but the process-wide
// telemetry registry. Results land at the same indices the serial sweep
// produced, so figures and CSVs are byte-identical at any parallelism.
func Run(cfg Config) (*Results, error) {
	cfg.defaults()
	res := &Results{Config: cfg}

	type cell struct {
		rate int
		name string
		seed int64
	}
	cells := make([]cell, 0, len(cfg.Rates)*len(cfg.Composers)*len(cfg.Seeds))
	for _, rate := range cfg.Rates {
		for _, name := range cfg.Composers {
			for _, seed := range cfg.Seeds {
				cells = append(cells, cell{rate, name, seed})
			}
		}
	}
	res.Runs = make([]RunStats, len(cells))

	workers := cfg.Parallelism
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	telSweepParallelism.Set(float64(workers))

	var progressMu sync.Mutex
	err := ParallelFor(len(cells), workers, func(i int) error {
		c := cells[i]
		rs, err := RunOne(cfg, c.name, c.rate, c.seed)
		if err != nil {
			return err
		}
		res.Runs[i] = rs
		if cfg.Progress != nil {
			progressMu.Lock()
			cfg.Progress(fmt.Sprintf("%-16s rate=%3d0Kbps seed=%d composed=%2d/%2d delivered=%.3f delay=%6.1fms jitter=%5.1fms",
				c.name, c.rate, c.seed, rs.Composed, rs.Submitted, rs.DeliveredFraction(), rs.MeanDelayMs(), rs.MeanJitterMs()))
			progressMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Telemetry = telemetry.Default().String()
	return res, nil
}

// RunOne executes a single (composer, rate, seed) run.
func RunOne(cfg Config, composerName string, rate int, seed int64) (RunStats, error) {
	cfg.defaults()
	composer, err := core.ByName(composerName)
	if err != nil {
		return RunStats{}, err
	}
	enableGossip := false
	switch cfg.StatsSource {
	case "", "fetch":
	case "gossip":
		enableGossip = true
	case "stale":
		if cfg.StatsMaxAge == 0 {
			cfg.StatsMaxAge = 30 * time.Second
		}
	default:
		return RunStats{}, fmt.Errorf("experiment: unknown StatsSource %q (want fetch, gossip or stale)", cfg.StatsSource)
	}
	catalog := services.Standard()
	topo := netsim.PlanetLabTopology(netsim.TopologyConfig{
		Nodes:  cfg.Nodes,
		MinBps: cfg.MinBps,
		MaxBps: cfg.MaxBps,
	}, seed)
	sys := deploy.NewSystem(deploy.SystemOptions{
		Nodes:            cfg.Nodes,
		Seed:             seed,
		Topology:         topo,
		MaxLinkBacklog:   cfg.MaxLinkBacklog,
		CongestionJitter: cfg.CongestionJitter,
		Catalog:          catalog,
		ServicesPerNode:  cfg.ServicesPerNode,
		SchedPolicy:      cfg.SchedPolicy,
		ProcJitter:       cfg.ProcJitter,
		StatsMaxAge:      cfg.StatsMaxAge,
		KeepDelaySamples: true,
		HeterogeneousCPU: true,
		BackgroundFlows:  cfg.BackgroundFlows,
		Adaptation:       cfg.Adaptation,
		EnableGossip:     enableGossip,
		Gossip:           gossip.Config{ProbeTimeout: deploy.GossipProbeTimeout},
	})
	if enableGossip {
		// Let the membership protocol disseminate the initial digests
		// (a few probe rounds plus one anti-entropy sync) so the first
		// compositions already read gossip-fresh statistics.
		sys.Sim.RunUntil(sys.Sim.Now() + 12*time.Second)
	}
	// The request sequence depends only on (seed, rate) so every
	// composer faces the identical workload.
	gen := workload.NewGenerator(workload.Config{
		Services:      catalog.Names(),
		MinServices:   cfg.MinServices,
		MaxServices:   cfg.MaxServices,
		RateUnits:     rate,
		UnitBytes:     cfg.UnitBytes,
		MaxSubstreams: cfg.MaxSubstreams,
	}, seed*1_000_003+int64(rate))

	arrivalRng := rand.New(rand.NewSource(seed*7_654_321 + int64(rate)))
	rs := RunStats{Composer: composerName, Rate: rate, Seed: seed}
	type admitted struct {
		origin int
		req    spec.Request
	}
	var live []admitted
	const rpcTimeout = 10 * time.Second
	for i := 0; i < cfg.Requests; i++ {
		origin := i % cfg.Nodes
		req := gen.Next()
		rs.Submitted++
		done := false
		ok := false
		started := sys.Sim.Now()
		var composedAt time.Duration
		sys.Engines[origin].Submit(req, composer, rpcTimeout, func(g *core.ExecutionGraph, err error) {
			done = true
			ok = err == nil
			composedAt = sys.Sim.Now()
		})
		deadline := sys.Sim.Now() + 2*rpcTimeout
		for !done && sys.Sim.Now() < deadline {
			sys.Sim.RunUntil(sys.Sim.Now() + 100*time.Millisecond)
		}
		if ok {
			rs.Composed++
			rs.SumComposeLatency += composedAt - started
			live = append(live, admitted{origin: origin, req: req})
		}
		gap := cfg.SubmitGap
		if cfg.PoissonArrivals {
			gap = time.Duration(arrivalRng.ExpFloat64() * float64(cfg.SubmitGap))
		}
		sys.Sim.RunUntil(sys.Sim.Now() + gap)
	}
	// Stream for the measurement window.
	sys.Sim.RunUntil(sys.Sim.Now() + cfg.MeasureFor)
	// Harvest sink and source statistics.
	var delays metrics.Histogram
	for _, a := range live {
		eng := sys.Engines[a.origin]
		for l := range a.req.Substreams {
			rs.Emitted += eng.Throughput(a.req.ID, l).EmittedUnits
			sink := eng.Sink(a.req.ID, l)
			if sink == nil {
				continue
			}
			rs.Received += sink.Received
			rs.Timely += sink.Timely
			rs.OutOfOrder += sink.OutOfOrder
			rs.SumDelay += sink.TotalDelay
			rs.SumJitter += sink.TotalJitter
			if sink.Delays != nil {
				delays.Merge(sink.Delays)
			}
		}
	}
	rs.DelayP95Ms = delays.Percentile(95)
	rs.Decisions = sys.Journal.Decisions()
	return rs, nil
}

// figureSpec describes how to turn runs into one figure.
type figureSpec struct {
	title  string
	ylabel string
	value  func(RunStats) float64
}

var figureSpecs = map[int]figureSpec{
	6:  {"Figure 6: Number of requests successfully composed", "requests", func(r RunStats) float64 { return float64(r.Composed) }},
	7:  {"Figure 7: Average end-to-end delay", "msec", RunStats.MeanDelayMs},
	8:  {"Figure 8: Fraction of data units delivered", "fraction", RunStats.DeliveredFraction},
	9:  {"Figure 9: Fraction of delivered units that were timely", "fraction", RunStats.TimelyFraction},
	10: {"Figure 10: Fraction of data units delivered out of order", "fraction", RunStats.OutOfOrderFraction},
	11: {"Figure 11: Average jitter", "msec", RunStats.MeanJitterMs},
}

// Figure renders the given paper figure (6–11) as a table: one row per
// rate (in Kbps), one column per composer, averaged over seeds.
func (res *Results) Figure(num int) (*metrics.Table, error) {
	spec, ok := figureSpecs[num]
	if !ok {
		return nil, fmt.Errorf("experiment: no figure %d in the paper's evaluation", num)
	}
	var xs []int
	for _, r := range res.Config.Rates {
		xs = append(xs, rateKbps(r, res.Config.UnitBytes))
	}
	t := metrics.NewTable(spec.title, "rate_kbps", spec.ylabel, xs)
	type key struct {
		composer string
		rate     int
	}
	agg := make(map[key]*metrics.Welford)
	for _, run := range res.Runs {
		k := key{run.Composer, run.Rate}
		w, ok := agg[k]
		if !ok {
			w = &metrics.Welford{}
			agg[k] = w
		}
		w.Add(spec.value(run))
	}
	for _, name := range res.Config.Composers {
		for _, r := range res.Config.Rates {
			if w, ok := agg[key{name, r}]; ok {
				t.Set(name, rateKbps(r, res.Config.UnitBytes), w.Mean())
			}
		}
	}
	return t, nil
}

// DelayP95Table renders the 95th-percentile end-to-end delay per rate and
// composer — a tail-latency companion to Figure 7 that the paper does not
// report.
func (res *Results) DelayP95Table() *metrics.Table {
	var xs []int
	for _, r := range res.Config.Rates {
		xs = append(xs, rateKbps(r, res.Config.UnitBytes))
	}
	t := metrics.NewTable("Delay p95 (companion to Figure 7)", "rate_kbps", "msec", xs)
	type key struct {
		composer string
		rate     int
	}
	agg := make(map[key]*metrics.Welford)
	for _, run := range res.Runs {
		k := key{run.Composer, run.Rate}
		w, ok := agg[k]
		if !ok {
			w = &metrics.Welford{}
			agg[k] = w
		}
		w.Add(run.DelayP95Ms)
	}
	for _, name := range res.Config.Composers {
		for _, r := range res.Config.Rates {
			if w, ok := agg[key{name, r}]; ok {
				t.Set(name, rateKbps(r, res.Config.UnitBytes), w.Mean())
			}
		}
	}
	return t
}

// AllFigures renders figures 6 through 11.
func (res *Results) AllFigures() ([]*metrics.Table, error) {
	var out []*metrics.Table
	for n := 6; n <= 11; n++ {
		t, err := res.Figure(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// rateKbps converts a rate in units/sec to Kbps for the given unit size.
func rateKbps(rate, unitBytes int) int { return rate * unitBytes * 8 / 1000 }
