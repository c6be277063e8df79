package experiment

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
)

// FederationConfig parameterizes RunFederation: a multi-cluster federated
// deployment — the service catalog partitioned across clusters so most
// requests can complete only through a cross-boundary hand-off — measured
// against a flat single-solver deployment of the same size facing the
// identical request sequence. The zero value selects 24 nodes in 3
// clusters, 12 requests per seed over 3 seeds.
type FederationConfig struct {
	Nodes    int
	Clusters int // 2..4 in the committed benchmark
	// BorderPeers is how many nodes per cluster run the summary exchange
	// (0: deploy's default of 1).
	BorderPeers int
	// BoundaryBps is each inter-cluster boundary link's capacity
	// (0: deploy's default 100 Mbps).
	BoundaryBps float64
	Seeds       []int64
	Requests    int // per seed
	Rate        int // units/sec per substream
	UnitBytes   int
	// MaxServices bounds a request's chain length (services are always
	// drawn from one cluster's catalog partition, so the chain is
	// satisfiable by exactly one cluster).
	MaxServices int
	SubmitGap   time.Duration
	MeasureFor  time.Duration
	// Warmup is how long the federated deployment runs before the first
	// submission, letting border summaries and digests converge. The flat
	// baseline gets the same warmup so delivery windows align.
	Warmup time.Duration
	// Parallelism bounds concurrent seeds (0: serial — the committed
	// benchmark is small enough that fan-out buys little).
	Parallelism int
	Progress    func(string)
}

func (c *FederationConfig) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 24
	}
	if c.Clusters == 0 {
		c.Clusters = 3
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.Requests == 0 {
		c.Requests = 12
	}
	if c.Rate == 0 {
		c.Rate = 5
	}
	if c.UnitBytes == 0 {
		c.UnitBytes = 1250
	}
	if c.MaxServices == 0 {
		c.MaxServices = 2
	}
	if c.SubmitGap == 0 {
		c.SubmitGap = 400 * time.Millisecond
	}
	if c.MeasureFor == 0 {
		c.MeasureFor = 30 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 30 * time.Second
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
}

// FederationCell is one deployment's measurement over a seed's request
// sequence.
type FederationCell struct {
	Submitted int
	Composed  int
	// CrossCluster counts compositions that crossed a boundary (composer
	// "federated+..."); always 0 in the flat baseline.
	CrossCluster int
	// Hand-off protocol counters summed over every coordinator
	// (federated cell only): attempts that committed, failed outright, or
	// were refused for boundary-link saturation.
	HandoffsOK        int64
	HandoffsFailed    int64
	HandoffsSaturated int64
	// MaxBoundaryUtilization is the highest reserved/capacity fraction
	// observed across boundary links after all submissions — > 1 would
	// mean the credit accounting oversubscribed a link.
	MaxBoundaryUtilization float64
	SumComposeLatency      time.Duration
	Emitted, Received      int64
}

// ComposedFraction is Composed/Submitted.
func (c FederationCell) ComposedFraction() float64 {
	if c.Submitted == 0 {
		return 0
	}
	return float64(c.Composed) / float64(c.Submitted)
}

// DeliveredFraction is Received/Emitted over the measurement window.
func (c FederationCell) DeliveredFraction() float64 {
	if c.Emitted == 0 {
		return 0
	}
	return float64(c.Received) / float64(c.Emitted)
}

// MeanComposeLatencyMs is the average submission-to-composition virtual
// latency over the composed requests.
func (c FederationCell) MeanComposeLatencyMs() float64 {
	if c.Composed == 0 {
		return 0
	}
	return float64(c.SumComposeLatency) / float64(c.Composed) / float64(time.Millisecond)
}

// HandoffSuccessRate is committed hand-offs over attempts (1 when no
// attempt was made).
func (c FederationCell) HandoffSuccessRate() float64 {
	attempts := c.HandoffsOK + c.HandoffsFailed + c.HandoffsSaturated
	if attempts == 0 {
		return 1
	}
	return float64(c.HandoffsOK) / float64(attempts)
}

// FederationRun pairs one seed's federated cell with its flat baseline.
type FederationRun struct {
	Seed      int64
	Federated FederationCell
	Flat      FederationCell
}

// FederationResults is a completed federation comparison.
type FederationResults struct {
	Config FederationConfig
	Runs   []FederationRun
}

// Aggregate sums every seed's cells; pick selects the side.
func (r *FederationResults) Aggregate(pick func(FederationRun) FederationCell) FederationCell {
	var out FederationCell
	for _, run := range r.Runs {
		c := pick(run)
		out.Submitted += c.Submitted
		out.Composed += c.Composed
		out.CrossCluster += c.CrossCluster
		out.HandoffsOK += c.HandoffsOK
		out.HandoffsFailed += c.HandoffsFailed
		out.HandoffsSaturated += c.HandoffsSaturated
		out.SumComposeLatency += c.SumComposeLatency
		out.Emitted += c.Emitted
		out.Received += c.Received
		if c.MaxBoundaryUtilization > out.MaxBoundaryUtilization {
			out.MaxBoundaryUtilization = c.MaxBoundaryUtilization
		}
	}
	return out
}

// clusterPartition splits the standard catalog round-robin into k groups:
// cluster i announces only group i, so a request drawn from group g can
// be placed only inside cluster g.
func clusterPartition(k int) [][]string {
	names := services.Standard().Names()
	groups := make([][]string, k)
	for i, n := range names {
		groups[i%k] = append(groups[i%k], n)
	}
	return groups
}

// federationRequests builds the seed's deterministic request sequence:
// chains of 1..MaxServices services drawn from a single cluster's
// partition, submitted round-robin across origins — so roughly
// (k-1)/k of the requests land at an origin whose own cluster cannot
// place them and must hand off.
func federationRequests(cfg FederationConfig, groups [][]string, seed int64) []spec.Request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	reqs := make([]spec.Request, cfg.Requests)
	for i := range reqs {
		g := groups[rng.Intn(len(groups))]
		n := 1 + rng.Intn(cfg.MaxServices)
		if n > len(g) {
			n = len(g)
		}
		chain := make([]string, 0, n)
		for _, j := range rng.Perm(len(g))[:n] {
			chain = append(chain, g[j])
		}
		reqs[i] = spec.Request{
			ID:         fmt.Sprintf("fed-%d-%d", seed, i),
			UnitBytes:  cfg.UnitBytes,
			Substreams: []spec.Substream{{Services: chain, Rate: cfg.Rate}},
		}
	}
	return reqs
}

// runFederationCell deploys one system — federated when fed is true, flat
// otherwise — and drives the request sequence through it.
func runFederationCell(cfg FederationConfig, seed int64, fed bool, reqs []spec.Request) FederationCell {
	opts := deploy.SystemOptions{
		Nodes:           cfg.Nodes,
		Seed:            seed,
		EnableGossip:    true,
		ServicesPerNode: 5,
		Gossip:          gossip.Config{ProbeTimeout: 500 * time.Millisecond},
	}
	if fed {
		opts.Federation = &deploy.FederationOptions{
			Clusters:        cfg.Clusters,
			BorderPeers:     cfg.BorderPeers,
			BoundaryBps:     cfg.BoundaryBps,
			ClusterServices: clusterPartition(cfg.Clusters),
		}
	}
	sys := deploy.NewSystem(opts)
	sys.Sim.RunUntil(sys.Sim.Now() + cfg.Warmup)

	var cell FederationCell
	composer := &core.MinCost{}
	type admitted struct {
		origin int
		req    spec.Request
	}
	var live []admitted
	const rpcTimeout = 10 * time.Second
	for i, req := range reqs {
		origin := i % cfg.Nodes
		cell.Submitted++
		done, ok := false, false
		var graph *core.ExecutionGraph
		started := sys.Sim.Now()
		var composedAt time.Duration
		sys.Engines[origin].Submit(req, composer, rpcTimeout, func(g *core.ExecutionGraph, err error) {
			done, ok, graph = true, err == nil, g
			composedAt = sys.Sim.Now()
		})
		deadline := sys.Sim.Now() + 2*rpcTimeout
		for !done && sys.Sim.Now() < deadline {
			sys.Sim.RunUntil(sys.Sim.Now() + 100*time.Millisecond)
		}
		if ok {
			cell.Composed++
			cell.SumComposeLatency += composedAt - started
			if graph.Composer != composer.Name() {
				cell.CrossCluster++
			}
			live = append(live, admitted{origin: origin, req: req})
		}
		sys.Sim.RunUntil(sys.Sim.Now() + cfg.SubmitGap)
	}
	for k := range sys.Ledgers {
		for _, u := range sys.Ledgers[k].Usage() {
			if u.CapacityBps > 0 && u.ReservedBps/u.CapacityBps > cell.MaxBoundaryUtilization {
				cell.MaxBoundaryUtilization = u.ReservedBps / u.CapacityBps
			}
		}
	}
	sys.Sim.RunUntil(sys.Sim.Now() + cfg.MeasureFor)
	for _, a := range live {
		eng := sys.Engines[a.origin]
		for l := range a.req.Substreams {
			cell.Emitted += eng.Throughput(a.req.ID, l).EmittedUnits
			if sink := eng.Sink(a.req.ID, l); sink != nil {
				cell.Received += sink.Received
			}
		}
	}
	for _, coord := range sys.Federation {
		if coord == nil {
			continue
		}
		st := coord.Stats()
		cell.HandoffsOK += st.HandoffsOK
		cell.HandoffsFailed += st.HandoffsFailed
		cell.HandoffsSaturated += st.HandoffsSaturated
	}
	return cell
}

// RunFederation measures federated multi-cluster composition against the
// flat single-solver baseline: the same seeds, the same request
// sequences, one deployment partitioned into clusters with boundary
// hand-offs and one flat deployment where a single composer sees every
// host.
func RunFederation(cfg FederationConfig) (*FederationResults, error) {
	cfg.defaults()
	if cfg.Clusters < 2 {
		return nil, fmt.Errorf("experiment: federation comparison needs >= 2 clusters, got %d", cfg.Clusters)
	}
	res := &FederationResults{Config: cfg}
	res.Runs = make([]FederationRun, len(cfg.Seeds))
	groups := clusterPartition(cfg.Clusters)
	var mu sync.Mutex
	err := ParallelFor(len(cfg.Seeds), cfg.Parallelism, func(i int) error {
		seed := cfg.Seeds[i]
		reqs := federationRequests(cfg, groups, seed)
		fed := runFederationCell(cfg, seed, true, reqs)
		flat := runFederationCell(cfg, seed, false, reqs)
		res.Runs[i] = FederationRun{Seed: seed, Federated: fed, Flat: flat}
		if cfg.Progress != nil {
			mu.Lock()
			cfg.Progress(fmt.Sprintf(
				"seed=%d federated composed=%d/%d (%d cross-cluster, handoff ok=%d fail=%d) flat composed=%d/%d",
				seed, fed.Composed, fed.Submitted, fed.CrossCluster, fed.HandoffsOK,
				fed.HandoffsFailed+fed.HandoffsSaturated, flat.Composed, flat.Submitted))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
