// Command rasc-sim composes and runs one stream-processing request on a
// simulated RASC deployment and reports the composition and delivery
// statistics.
//
// Example:
//
//	rasc-sim -nodes 32 -seed 7 -composer mincost -services filter,transcode -rate 100 -duration 30s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rasc.dev/rasc"
	"rasc.dev/rasc/internal/experiment"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/workload"
)

// replayWorkload submits every request of a saved workload file from
// round-robin origins and prints per-request plus aggregate results.
func replayWorkload(sys *rasc.System, path string, composer rasc.Composer, duration time.Duration) {
	reqs, err := workload.LoadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "workload: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("replaying %d requests from %s via %s\n", len(reqs), path, composer)
	type liveReq struct {
		comp *rasc.Composition
		id   string
	}
	var live []liveReq
	for i, req := range reqs {
		origin := i % sys.Nodes()
		comp, err := sys.Submit(origin, req, composer)
		if err != nil {
			fmt.Printf("  %-10s rejected: %v\n", req.ID, err)
			continue
		}
		fmt.Printf("  %-10s composed onto %d hosts\n", req.ID, comp.NumHosts())
		live = append(live, liveReq{comp: comp, id: req.ID})
		sys.Run(400 * time.Millisecond)
	}
	sys.Run(duration)
	var agg rasc.DeliveryStats
	for _, lr := range live {
		s := lr.comp.Stats()
		agg.Emitted += s.Emitted
		agg.Received += s.Received
		agg.Timely += s.Timely
		agg.OutOfOrder += s.OutOfOrder
		fmt.Printf("  %-10s delivered %.1f%% (delay %v)\n",
			lr.id, 100*s.DeliveredFraction(), s.MeanDelay.Round(time.Millisecond))
	}
	fmt.Printf("\naggregate: composed %d/%d, delivered %.1f%%, timely %.1f%%\n",
		len(live), len(reqs), 100*agg.DeliveredFraction(), 100*agg.TimelyFraction())
}

func main() {
	var (
		nodes    = flag.Int("nodes", 32, "deployment size")
		seed     = flag.Int64("seed", 1, "simulation seed")
		composer = flag.String("composer", "mincost", "composer: mincost|mincost-nosplit|greedy|random|lp")
		svcList  = flag.String("services", "filter,transcode", "comma-separated service chain")
		rateKbps = flag.Int("rate", 100, "requested rate in Kbps")
		duration = flag.Duration("duration", 30*time.Second, "virtual streaming time")
		origin   = flag.Int("origin", 0, "origin node index")
		unit     = flag.Int("unit", 1250, "data unit size in bytes")
		traceOn  = flag.Bool("trace", false, "trace per-unit events and print a sample timeline")
		telOut   = flag.String("telemetry", "", "dump a final runtime telemetry snapshot (Prometheus text format) to this file, or \"-\" for stdout")
		decOut   = flag.String("decisions", "", "dump the adaptation decision journal (JSON) to this file, or \"-\" for stdout as readable text")
		workFile = flag.String("workload", "", "replay a JSON workload file instead of a single request")
		dotOut   = flag.String("dot", "", "write the execution graph in Graphviz dot format to this file")
		gossipOn = flag.Bool("gossip", false, "run the gossip membership protocol: view-backed lookups, gossip-fresh stats, failure-triggered recomposition")

		adaptIvl  = flag.Duration("adapt-interval", 0, "enable the adaptation control plane with this delivery-rate check period (0: disabled; pair with -gossip for failure triggers)")
		adaptFull = flag.Bool("adapt-full-only", false, "disable incremental reallocation: every adaptation action tears down and re-composes in full")

		priority     = flag.String("priority", "", "tenancy class of the submitted request: critical, standard or best-effort")
		admission    = flag.Bool("admission", false, "front submissions with the multi-tenant admission gate (priority classes, fair-share caps, admission queue)")
		admissionBps = flag.Float64("admission-bps", 0, "admission gate capacity budget in bits/sec (0: derive from the topology's aggregate access capacity)")
		maxTenants   = flag.Int("max-tenants", 0, "bound on concurrently admitted applications (0: unlimited; implies -admission)")
		fairDeadband = flag.Float64("fair-deadband", 0, "suppress fair_share_changed notifications while a tenant's cap moves less than this relative fraction (0: notify on every move)")
		capCoalesce  = flag.Duration("cap-coalesce", 0, "collapse cap fan-out bursts within this window into one sweep carrying the final caps (0: immediate fan-out)")
		hostLedger   = flag.Bool("per-host-ledger", false, "account admission capacity per simulated node instead of one aggregate budget (implies -admission)")

		clusters    = flag.Int("clusters", 0, "shard the deployment into N federated clusters with cluster-scoped composers and boundary hand-offs (0: flat; implies -gossip)")
		borderNodes = flag.Int("border-peers", 0, "border nodes per cluster exchanging boundary summaries (0: default 1)")
		boundaryBps = flag.Float64("boundary-bps", 0, "inter-cluster boundary-link capacity in bits/sec (0: default 100 Mbps)")
		clusterSvcs = flag.String("cluster-services", "", "per-cluster service restrictions as semicolon-separated comma lists, e.g. 'filter,encrypt;transcode' (empty: every cluster announces from the full catalog)")
		reqCluster  = flag.String("cluster", "", "pin the submitted request to this cluster's composer (e.g. c1; empty: the origin node's own cluster)")

		runs     = flag.Int("runs", 1, "repeat the scenario on N independent deployments seeded seed..seed+N-1")
		parallel = flag.Int("parallel", 0, "worker-pool size for -runs > 1 (0 = NumCPU, 1 = serial)")

		chaosDrop    = flag.Float64("chaos-drop", 0, "probability each transport message is dropped")
		chaosDelay   = flag.Duration("chaos-delay", 0, "fixed extra delay injected into every transport message")
		chaosJitter  = flag.Duration("chaos-delay-jitter", 0, "uniform extra delay in [0, jitter) on top of -chaos-delay")
		chaosDup     = flag.Float64("chaos-dup", 0, "probability each transport message is duplicated")
		chaosReorder = flag.Float64("chaos-reorder", 0, "probability each transport message is held back and overtaken")

		batchUnits = flag.Int("batch-units", 0, "coalesce up to N data units per destination into one wire message (0 or 1: every unit is its own message)")
		flushIvl   = flag.Duration("flush-interval", 0, "flush an open data-unit batch no later than this after its first unit, and tick sources no more often (0: 2ms when -batch-units > 1, else none)")
		shards     = flag.Int("shards", 0, "simulated CPUs per node; a substream stays on one (0 or 1: one CPU, as in the paper)")
	)
	flag.Parse()

	cmp, err := rasc.ParseComposer(*composer)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pri, err := rasc.ParsePriority(*priority)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tenancyOn := *admission || *maxTenants > 0 || *hostLedger
	chaos := rasc.ChaosConfig{
		Drop:        *chaosDrop,
		Delay:       *chaosDelay,
		DelayJitter: *chaosJitter,
		Duplicate:   *chaosDup,
		Reorder:     *chaosReorder,
	}
	mkOpts := func(seed int64) []rasc.Option {
		o := []rasc.Option{rasc.WithNodes(*nodes), rasc.WithSeed(seed), rasc.WithGossip(*gossipOn)}
		if chaos.Active() {
			o = append(o, rasc.WithChaos(chaos))
		}
		if *adaptIvl > 0 {
			cfg := rasc.AdaptationConfig{Interval: *adaptIvl}
			cfg.Control.DisableIncremental = *adaptFull
			o = append(o, rasc.WithAdaptation(cfg))
		}
		if tenancyOn {
			o = append(o, rasc.WithTenancy(rasc.TenancyConfig{
				CapacityBps:       *admissionBps,
				MaxTenants:        *maxTenants,
				FairShareDeadband: *fairDeadband,
				CapCoalesceWindow: *capCoalesce,
				PerHostLedger:     *hostLedger,
			}))
		}
		if *clusters > 0 {
			fed := rasc.FederationConfig{
				Clusters:    *clusters,
				BorderPeers: *borderNodes,
				BoundaryBps: *boundaryBps,
			}
			if *clusterSvcs != "" {
				for _, group := range strings.Split(*clusterSvcs, ";") {
					fed.ClusterServices = append(fed.ClusterServices, strings.Split(group, ","))
				}
			}
			o = append(o, rasc.WithFederation(fed))
		}
		if *batchUnits > 1 || *shards > 1 {
			o = append(o, rasc.WithDataPlane(rasc.DataPlaneConfig{
				BatchUnits:    *batchUnits,
				FlushInterval: *flushIvl,
				Shards:        *shards,
			}))
		}
		return o
	}
	chain := strings.Split(*svcList, ",")
	rateUnits := *rateKbps * 1000 / (*unit * 8)
	if rateUnits < 1 {
		rateUnits = 1
	}
	req := rasc.Request{
		ID:         "cli-request",
		UnitBytes:  *unit,
		Substreams: []rasc.Substream{{Services: chain, Rate: rateUnits}},
		Priority:   pri,
		Cluster:    *reqCluster,
	}
	if *runs > 1 {
		if *traceOn || *workFile != "" || *dotOut != "" {
			fmt.Fprintln(os.Stderr, "-runs > 1 is incompatible with -trace, -workload and -dot")
			os.Exit(2)
		}
		warm := time.Duration(0)
		if *clusters > 1 {
			warm = 30 * time.Second
		}
		multiRun(*runs, *parallel, *seed, *origin, *duration, warm, req, cmp, mkOpts)
		return
	}
	// A federated deployment needs the border summary exchange and digest
	// dissemination to converge before cross-cluster discovery can answer.
	warmup := time.Duration(0)
	if *clusters > 1 {
		warmup = 30 * time.Second
	}
	sys := rasc.New(mkOpts(*seed)...)
	sys.Run(warmup)
	var buf *rasc.TraceBuffer
	if *traceOn {
		buf = sys.EnableTracing(1_000_000)
	}
	if *workFile != "" {
		replayWorkload(sys, *workFile, cmp, *duration)
		dumpTenants(sys)
		dumpTelemetry(sys, *telOut)
		dumpDecisions(sys, *decOut)
		return
	}
	fmt.Printf("submitting %v at %d Kbps (%d units/sec) via %s from node %d\n",
		chain, *rateKbps, rateUnits, cmp, *origin)
	comp, err := sys.Submit(*origin, req, cmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "composition failed: %v\n", err)
		os.Exit(1)
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(comp.Graph.DOT()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote execution graph to %s\n", *dotOut)
	}
	fmt.Printf("\ncomposed onto %d hosts:\n", comp.NumHosts())
	for _, p := range comp.Placements() {
		fmt.Printf("  substream %d stage %d %-12s -> %s (%.0f units/sec)\n",
			p.Substream, p.Stage, p.Service, p.Host.Addr, p.Rate)
	}
	sys.Run(*duration)
	s := comp.Stats()
	fmt.Printf("\nafter %v of streaming:\n", *duration)
	fmt.Printf("  emitted      %d units\n", s.Emitted)
	fmt.Printf("  delivered    %d units (%.1f%%)\n", s.Received, 100*s.DeliveredFraction())
	fmt.Printf("  timely       %.1f%% of delivered\n", 100*s.TimelyFraction())
	fmt.Printf("  out of order %d units\n", s.OutOfOrder)
	fmt.Printf("  mean delay   %v\n", s.MeanDelay.Round(time.Millisecond))
	fmt.Printf("  mean jitter  %v\n", s.MeanJitter.Round(time.Millisecond))

	if buf != nil {
		fmt.Printf("\ntrace: %d events recorded\n", buf.Total())
		fmt.Println("\nper-hop latency (substream 0):")
		for _, sl := range buf.StageLatencies(req.ID, 0) {
			fmt.Printf("  -> stage %d: %v mean over %d units\n", sl.Stage, sl.Mean.Round(time.Millisecond), sl.Count)
		}
		if drops := buf.DropsByCause(); len(drops) > 0 {
			fmt.Println("\ndrops by cause:")
			for cause, n := range drops {
				fmt.Printf("  %-10s %d\n", cause, n)
			}
		}
		fmt.Println("\nsample unit timeline (seq 50):")
		fmt.Print(trace.FormatTimeline(buf.Timeline(req.ID, 0, 50)))
	}
	dumpTenants(sys)
	dumpFederation(sys, *origin, *clusters)
	dumpTelemetry(sys, *telOut)
	dumpDecisions(sys, *decOut)
}

// multiRun repeats the single-request scenario on n independent
// deployments seeded base..base+n-1, fanned out across a bounded worker
// pool. Each run builds its own System, so nothing is shared; results
// print in seed order regardless of completion order.
func multiRun(n, workers int, base int64, origin int, duration, warmup time.Duration, req rasc.Request, cmp rasc.Composer, mkOpts func(int64) []rasc.Option) {
	type outcome struct {
		hosts int
		stats rasc.DeliveryStats
		err   error
	}
	results := make([]outcome, n)
	fmt.Printf("running %d deployments (seeds %d..%d) via %s\n", n, base, base+int64(n)-1, cmp)
	err := experiment.ParallelFor(n, workers, func(i int) error {
		sys := rasc.New(mkOpts(base + int64(i))...)
		sys.Run(warmup)
		comp, err := sys.Submit(origin, req, cmp)
		if err != nil {
			results[i].err = err
			return nil // a rejected composition is a result, not a sweep failure
		}
		sys.Run(duration)
		results[i] = outcome{hosts: comp.NumHosts(), stats: comp.Stats()}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "runs: %v\n", err)
		os.Exit(1)
	}
	var agg rasc.DeliveryStats
	composed := 0
	for i, r := range results {
		if r.err != nil {
			fmt.Printf("  seed %-3d rejected: %v\n", base+int64(i), r.err)
			continue
		}
		composed++
		agg.Emitted += r.stats.Emitted
		agg.Received += r.stats.Received
		agg.Timely += r.stats.Timely
		agg.OutOfOrder += r.stats.OutOfOrder
		fmt.Printf("  seed %-3d hosts=%d delivered %.1f%% timely %.1f%% delay %v\n",
			base+int64(i), r.hosts, 100*r.stats.DeliveredFraction(),
			100*r.stats.TimelyFraction(), r.stats.MeanDelay.Round(time.Millisecond))
	}
	fmt.Printf("\naggregate: composed %d/%d, delivered %.1f%%, timely %.1f%%\n",
		composed, n, 100*agg.DeliveredFraction(), 100*agg.TimelyFraction())
}

// dumpTenants prints the admission gate's posture (a no-op without
// -admission / -max-tenants).
func dumpTenants(sys *rasc.System) {
	tenants, ok := sys.Tenants()
	if !ok {
		return
	}
	tt, _ := sys.TenantGateTotals()
	fmt.Printf("\nadmission gate: %d admitted, %d queued, %.0f of %.0f bps allocated, %d preemptions, %d rejections\n",
		tt.Admitted, tt.Queued, tt.AllocatedBps, tt.CapacityBps, tt.Preemptions, tt.Rejections)
	for _, t := range tenants {
		fmt.Printf("  %-12s %-11s %-8s demand %8.0f bps cap %8.0f bps\n",
			t.App, t.Priority, t.State, t.DemandBps, t.CapBps)
	}
}

// dumpFederation prints the origin's federation posture — its cluster,
// committed cross-cluster hand-offs and every cluster's boundary-link
// accounting (a no-op without -clusters).
func dumpFederation(sys *rasc.System, origin, clusters int) {
	refs, ok := sys.Handoffs(origin)
	if !ok {
		return
	}
	fmt.Printf("\nfederation: origin in cluster %s, %d cross-cluster hand-off(s)\n",
		sys.ClusterOf(origin), len(refs))
	for _, h := range refs {
		fmt.Printf("  %s substream %d -> %s (%.0f bps across the boundary)\n",
			h.App, h.Substream, h.RemoteCluster, h.DebitBps)
	}
	for k := 0; k < clusters; k++ {
		links, _ := sys.BoundaryLinks(k)
		for _, l := range links {
			fmt.Printf("  cluster c%d link %s: %.0f/%.0f bps reserved, %d credit(s)\n",
				k, l.Link, l.ReservedBps, l.CapacityBps, l.Credits)
		}
	}
}

// dumpTelemetry writes the final runtime telemetry snapshot alongside the
// result tables: to stdout for "-", to a file otherwise, nowhere when
// unset.
func dumpTelemetry(sys *rasc.System, dest string) {
	if dest == "" {
		return
	}
	snap := sys.TelemetrySnapshot()
	if dest == "-" {
		fmt.Printf("\nruntime telemetry:\n%s", snap)
		return
	}
	if err := os.WriteFile(dest, []byte(snap), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote telemetry snapshot to %s\n", dest)
}

// dumpDecisions writes the deployment's adaptation decision journal: as
// readable text to stdout for "-", as JSON to a file otherwise, nowhere
// when unset.
func dumpDecisions(sys *rasc.System, dest string) {
	if dest == "" {
		return
	}
	ds := sys.Decisions()
	if dest == "-" {
		fmt.Printf("\nadaptation decisions (%d):\n%s", len(ds), trace.FormatDecisions(ds))
		return
	}
	b, err := json.MarshalIndent(ds, "", "  ")
	if err == nil {
		err = os.WriteFile(dest, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "decisions: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %d adaptation decisions to %s\n", len(ds), dest)
}
