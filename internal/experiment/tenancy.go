package experiment

import (
	"errors"
	"fmt"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/workload"
)

// ContentionConfig parameterizes the churn+contention tenancy scenario:
// a deployment whose admission gate budgets deliberately less capacity
// than the tenants demand, so the weighted fair-share allocation must
// choose who absorbs the shortfall.
type ContentionConfig struct {
	// Nodes and Seed size and seed the deployment (defaults 16, 1).
	Nodes int
	Seed  int64
	// CriticalApps and BestEffortApps are the tenant counts per class
	// (defaults 2 and 6). For Critical tenants to stay whole at
	// Contention c the class mix must satisfy
	// weight_c*(nCrit+nBest) > c*(weight_c*nCrit + nBest), which the
	// defaults do at the default weights and 2x contention.
	CriticalApps   int
	BestEffortApps int
	// RateUnits is each tenant's demand in data units/sec (default 10,
	// i.e. 100 Kbps at the default unit size).
	RateUnits int
	// Contention is aggregate demand over gate capacity (default 2: the
	// cluster admits half of what the tenants ask for).
	Contention float64
	// BurstSize flash-crowd applications of BurstRateUnits each
	// (defaults 20 and 100) hit one hot service after the first
	// measurement window. Their demand is far above any viable fair
	// share, so the gate must park or reject every one of them.
	BurstSize      int
	BurstRateUnits int
	// Composer names the composition algorithm (default "mincost").
	Composer string
	// Warmup runs after the tenants are submitted, before the first
	// measurement window, so admission-time cap reshuffles settle
	// (default 20s). Window is each measurement window (default 30s);
	// Settle the post-churn gap before the last window (default 30s).
	Warmup time.Duration
	Window time.Duration
	Settle time.Duration
}

func (c *ContentionConfig) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CriticalApps == 0 {
		c.CriticalApps = 2
	}
	if c.BestEffortApps == 0 {
		c.BestEffortApps = 6
	}
	if c.RateUnits == 0 {
		c.RateUnits = 10
	}
	if c.Contention == 0 {
		c.Contention = 2
	}
	if c.BurstSize == 0 {
		c.BurstSize = 20
	}
	if c.BurstRateUnits == 0 {
		c.BurstRateUnits = 100
	}
	if c.Composer == "" {
		c.Composer = "mincost"
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * time.Second
	}
	if c.Window == 0 {
		c.Window = 30 * time.Second
	}
	if c.Settle == 0 {
		c.Settle = 30 * time.Second
	}
}

// TenantRun is one tenant application's measurements across the
// scenario's three windows: A under steady contention, B after the
// rejected flash-crowd burst, C after one Critical tenant departed.
type TenantRun struct {
	App       string
	Priority  spec.Priority
	DemandBps float64
	// CapBps is the fair-share cap at the end of the scenario (0 for
	// the churned tenant).
	CapBps float64
	// RateA/B/C are delivered rates in units/sec per window.
	RateA, RateB, RateC float64
	// BelowA/B/C are the seconds of rasc_app_time_below_requested
	// accrued per window — time the delivered rate sat below half the
	// tenant's *requested* (not capped) rate.
	BelowA, BelowB, BelowC float64
	// Churned marks the Critical tenant torn down before window C.
	Churned bool
}

// ContentionResults is a completed churn+contention scenario.
type ContentionResults struct {
	Config ContentionConfig
	// CapacityBps is the gate budget the scenario derived from the
	// configured contention factor.
	CapacityBps float64
	Apps        []TenantRun
	// BurstAdmitted/Queued/Rejected classify the flash-crowd verdicts.
	BurstAdmitted, BurstQueued, BurstRejected int
	// Totals is the gate's posture when the scenario ended; Decisions
	// the deployment journal including the admission spans.
	Totals    tenant.Totals
	Decisions []trace.Decision
}

// App returns the named tenant's measurements (nil when unknown).
func (r *ContentionResults) App(id string) *TenantRun {
	for i := range r.Apps {
		if r.Apps[i].App == id {
			return &r.Apps[i]
		}
	}
	return nil
}

// RunContention executes the churn+contention tenancy scenario:
//
//  1. Submit CriticalApps + BestEffortApps equal-demand tenants against
//     a gate budgeting 1/Contention of their aggregate demand. The
//     water-filling allocation satisfies the Critical class in full and
//     caps the BestEffort class to the remainder.
//  2. Measure window A: per-tenant delivered rate and below-requested
//     time. Isolation means Critical tenants accrue ~none of it while
//     the BestEffort class absorbs the whole shortfall.
//  3. Flash crowd: burst applications demanding far above any viable
//     share hit one hot service. The gate parks or rejects every one —
//     none composes, so no running tenant loses rate (window B).
//  4. Churn: one Critical tenant departs; the freed share flows to the
//     BestEffort class through fair_share_changed upgrades (window C).
func RunContention(cfg ContentionConfig) (*ContentionResults, error) {
	cfg.defaults()
	composer, err := core.ByName(cfg.Composer)
	if err != nil {
		return nil, err
	}
	catalog := services.Standard()

	// Build the tenant requests first so the gate budget derives from
	// their real aggregate demand.
	type app struct {
		origin int
		req    spec.Request
		graph  *core.ExecutionGraph
		run    TenantRun
	}
	gen := workload.NewGenerator(workload.Config{
		Services:    catalog.Names(),
		MinServices: 2, MaxServices: 3,
		RateUnits: cfg.RateUnits, MaxSubstreams: 1,
	}, cfg.Seed)
	apps := make([]*app, 0, cfg.CriticalApps+cfg.BestEffortApps)
	addApp := func(id string, pri spec.Priority, origin int) {
		req := gen.Next()
		req.ID, req.Priority = id, pri
		apps = append(apps, &app{origin: origin, req: req,
			run: TenantRun{App: id, Priority: pri, DemandBps: req.BitsPerSecond(req.TotalRate())}})
	}
	for i := 0; i < cfg.CriticalApps; i++ {
		addApp(fmt.Sprintf("crit-%d", i), spec.Critical, i%cfg.Nodes)
	}
	for i := 0; i < cfg.BestEffortApps; i++ {
		addApp(fmt.Sprintf("be-%d", i), spec.BestEffort, (cfg.CriticalApps+i)%cfg.Nodes)
	}
	var totalDemand float64
	for _, a := range apps {
		totalDemand += a.run.DemandBps
	}
	capacity := totalDemand / cfg.Contention

	topo := netsim.PlanetLabTopology(netsim.TopologyConfig{Nodes: cfg.Nodes}, cfg.Seed)
	sys := deploy.NewSystem(deploy.SystemOptions{
		Nodes: cfg.Nodes, Seed: cfg.Seed, Topology: topo,
		MaxLinkBacklog:   300 * time.Millisecond,
		CongestionJitter: 0.5,
		Catalog:          catalog,
		HeterogeneousCPU: true,
		Adaptation:       &stream.AdaptationConfig{Interval: 5 * time.Second},
		Tenancy: &tenant.Config{
			CapacityBps: capacity,
			// 1/4 floor: the BestEffort fair share under the default 2x
			// contention is 1/3 of demand — viable, so the class is
			// rate-capped in place instead of preempted.
			MinShareFraction: 0.25,
		},
	})

	const rpcTimeout = 10 * time.Second
	submit := func(origin int, req spec.Request, graph **core.ExecutionGraph) error {
		done := false
		var serr error
		sys.Engines[origin].Submit(req, composer, rpcTimeout, func(g *core.ExecutionGraph, err error) {
			done, serr = true, err
			if graph != nil && err == nil {
				*graph = g
			}
		})
		deadline := sys.Sim.Now() + 2*rpcTimeout
		for !done && sys.Sim.Now() < deadline {
			sys.Sim.RunUntil(sys.Sim.Now() + 100*time.Millisecond)
		}
		if !done {
			return fmt.Errorf("experiment: submission of %s did not complete", req.ID)
		}
		return serr
	}
	for _, a := range apps {
		if err := submit(a.origin, a.req, &a.graph); err != nil {
			return nil, fmt.Errorf("experiment: tenant %s not admitted: %w", a.req.ID, err)
		}
		sys.Sim.RunUntil(sys.Sim.Now() + 400*time.Millisecond)
	}
	sys.Sim.RunUntil(sys.Sim.Now() + cfg.Warmup)

	received := func(a *app) int64 {
		var n int64
		eng := sys.Engines[a.origin]
		for l := range a.req.Substreams {
			if s := eng.Sink(a.req.ID, l); s != nil {
				n += s.Received
			}
		}
		return n
	}
	window := func(set func(*TenantRun, float64, float64)) {
		type snap struct {
			recv  int64
			below float64
		}
		before := make([]snap, len(apps))
		for i, a := range apps {
			before[i] = snap{received(a), stream.AppTimeBelowSeconds(a.req.ID)}
		}
		sys.Sim.RunUntil(sys.Sim.Now() + cfg.Window)
		for i, a := range apps {
			d := received(a) - before[i].recv
			if d < 0 {
				// A mid-window recompose replaced the sinks and restarted
				// their counters; the post-restart count undercounts the
				// window but never goes negative.
				d = received(a)
			}
			set(&a.run, float64(d)/cfg.Window.Seconds(),
				stream.AppTimeBelowSeconds(a.req.ID)-before[i].below)
		}
	}

	res := &ContentionResults{Config: cfg, CapacityBps: capacity}
	window(func(r *TenantRun, rate, below float64) { r.RateA, r.BelowA = rate, below })

	// Flash crowd on the catalog's first service: demands this far above
	// any viable fair share must all park or bounce at the gate.
	burstGen := workload.NewGenerator(workload.Config{
		Services: catalog.Names(), RateUnits: cfg.BurstRateUnits,
	}, cfg.Seed+1)
	for i, req := range burstGen.FlashCrowd(cfg.BurstSize, catalog.Names()[0], spec.BestEffort) {
		err := submit(i%cfg.Nodes, req, nil)
		switch {
		case err == nil:
			res.BurstAdmitted++
		case errors.Is(err, tenant.ErrAdmissionQueued):
			res.BurstQueued++
		case errors.Is(err, tenant.ErrAdmissionRejected):
			res.BurstRejected++
		default:
			return nil, fmt.Errorf("experiment: burst %s failed oddly: %w", req.ID, err)
		}
	}
	window(func(r *TenantRun, rate, below float64) { r.RateB, r.BelowB = rate, below })

	// Churn: the first Critical tenant departs. Its released share flows
	// to the capped BestEffort class — fair_share_changed upgrades lift
	// their delivered rates in window C.
	churned := apps[0]
	churned.run.Churned = true
	sys.Engines[churned.origin].Teardown(churned.graph, rpcTimeout)
	sys.Sim.RunUntil(sys.Sim.Now() + cfg.Settle)
	window(func(r *TenantRun, rate, below float64) { r.RateC, r.BelowC = rate, below })

	for _, a := range apps {
		a.run.CapBps, _ = sys.Gate.CapBps(a.req.ID)
		res.Apps = append(res.Apps, a.run)
	}
	res.Totals = sys.Gate.Totals()
	res.Decisions = sys.Journal.Decisions()
	return res, nil
}
