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
	"errors"
	"flag"
	"fmt"
	"io"
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
func replayWorkload(w io.Writer, sys *rasc.System, path string, composer rasc.Composer, duration time.Duration) error {
	reqs, err := workload.LoadFile(path)
	if err != nil {
		return fmt.Errorf("workload: %v", err)
	}
	fmt.Fprintf(w, "replaying %d requests from %s via %s\n", len(reqs), path, composer)
	type liveReq struct {
		comp *rasc.Composition
		id   string
	}
	var live []liveReq
	for i, req := range reqs {
		origin := i % sys.Nodes()
		comp, err := sys.Submit(origin, req, composer)
		if err != nil {
			fmt.Fprintf(w, "  %-10s rejected: %v\n", req.ID, err)
			continue
		}
		fmt.Fprintf(w, "  %-10s composed onto %d hosts\n", req.ID, comp.NumHosts())
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
		fmt.Fprintf(w, "  %-10s delivered %.1f%% (delay %v)\n",
			lr.id, 100*s.DeliveredFraction(), s.MeanDelay.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\naggregate: composed %d/%d, delivered %.1f%%, timely %.1f%%\n",
		len(live), len(reqs), 100*agg.DeliveredFraction(), 100*agg.TimelyFraction())
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// composerNames lists every name -composer accepts, separated by "|".
func composerNames() string {
	var names []string
	for _, c := range rasc.Composers() {
		names = append(names, c.String())
	}
	return strings.Join(names, "|")
}

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit code (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rasc-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes    = fs.Int("nodes", 32, "deployment size")
		seed     = fs.Int64("seed", 1, "simulation seed")
		composer = fs.String("composer", "mincost", "composer: "+composerNames())
		svcList  = fs.String("services", "filter,transcode", "comma-separated service chain")
		rateKbps = fs.Int("rate", 100, "requested rate in Kbps")
		duration = fs.Duration("duration", 30*time.Second, "virtual streaming time")
		origin   = fs.Int("origin", 0, "origin node index")
		unit     = fs.Int("unit", 1250, "data unit size in bytes")
		traceOn  = fs.Bool("trace", false, "trace per-unit events and print a sample timeline")
		telOut   = fs.String("telemetry", "", "dump a final runtime telemetry snapshot (Prometheus text format) to this file, or \"-\" for stdout")
		decOut   = fs.String("decisions", "", "dump the adaptation decision journal (JSON) to this file, or \"-\" for stdout as readable text")
		workFile = fs.String("workload", "", "replay a JSON workload file instead of a single request")
		dotOut   = fs.String("dot", "", "write the execution graph in Graphviz dot format to this file")
		gossipOn = fs.Bool("gossip", false, "run the gossip membership protocol: view-backed lookups, gossip-fresh stats, failure-triggered recomposition")

		adaptIvl = fs.Duration("adapt-interval", 0, "enable the adaptation control plane with this delivery-rate check period (0: disabled; pair with -gossip for failure triggers)")

		priority     = fs.String("priority", "", "tenancy class of the submitted request: critical, standard or best-effort")
		admission    = fs.Bool("admission", false, "front submissions with the multi-tenant admission gate (priority classes, fair-share caps, admission queue)")
		admissionBps = fs.Float64("admission-bps", 0, "admission gate capacity budget in bits/sec (0: derive from the topology's aggregate access capacity)")
		maxTenants   = fs.Int("max-tenants", 0, "bound on concurrently admitted applications (0: unlimited; implies -admission)")

		clusters    = fs.Int("clusters", 0, "shard the deployment into N federated clusters with cluster-scoped composers and boundary hand-offs (0: flat; implies -gossip)")
		borderNodes = fs.Int("border-peers", 0, "border nodes per cluster exchanging boundary summaries (0: default 1)")
		boundaryBps = fs.Float64("boundary-bps", 0, "inter-cluster boundary-link capacity in bits/sec (0: default 100 Mbps)")
		clusterSvcs = fs.String("cluster-services", "", "per-cluster service restrictions as semicolon-separated comma lists, e.g. 'filter,encrypt;transcode' (empty: every cluster announces from the full catalog)")
		reqCluster  = fs.String("cluster", "", "pin the submitted request to this cluster's composer (e.g. c1; empty: the origin node's own cluster)")

		runs     = fs.Int("runs", 1, "repeat the scenario on N independent deployments seeded seed..seed+N-1")
		parallel = fs.Int("parallel", 0, "worker-pool size for -runs > 1 (0 = NumCPU, 1 = serial)")

		chaosDrop    = fs.Float64("chaos-drop", 0, "probability each transport message is dropped")
		chaosDelay   = fs.Duration("chaos-delay", 0, "fixed extra delay injected into every transport message")
		chaosJitter  = fs.Duration("chaos-delay-jitter", 0, "uniform extra delay in [0, jitter) on top of -chaos-delay")
		chaosDup     = fs.Float64("chaos-dup", 0, "probability each transport message is duplicated")
		chaosReorder = fs.Float64("chaos-reorder", 0, "probability each transport message is held back and overtaken")

		batchUnits = fs.Int("batch-units", 0, "coalesce up to N data units per destination into one wire message (0 or 1: every unit is its own message)")
		flushIvl   = fs.Duration("flush-interval", 0, "flush an open data-unit batch no later than this after its first unit, and tick sources no more often (0: 2ms when -batch-units > 1, else none)")
		shards     = fs.Int("shards", 0, "simulated CPUs per node; a substream stays on one (0 or 1: one CPU, as in the paper)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *nodes < 1:
		fmt.Fprintf(stderr, "-nodes must be at least 1, got %d\n", *nodes)
		return 2
	case *unit < 1:
		fmt.Fprintf(stderr, "-unit must be at least 1 byte, got %d\n", *unit)
		return 2
	case *adaptIvl < 0:
		fmt.Fprintf(stderr, "-adapt-interval must not be negative, got %v\n", *adaptIvl)
		return 2
	}

	cmp, err := rasc.ParseComposer(*composer)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pri, err := rasc.ParsePriority(*priority)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	tenancyOn := *admission || *maxTenants > 0
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
			o = append(o, rasc.WithAdaptation(rasc.AdaptationConfig{Interval: *adaptIvl}))
		}
		if tenancyOn {
			o = append(o, rasc.WithTenancy(rasc.TenancyConfig{
				CapacityBps: *admissionBps,
				MaxTenants:  *maxTenants,
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
			fmt.Fprintln(stderr, "-runs > 1 is incompatible with -trace, -workload and -dot")
			return 2
		}
		warm := time.Duration(0)
		if *clusters > 1 {
			warm = 30 * time.Second
		}
		return exitCode(stderr, multiRun(stdout, *runs, *parallel, *seed, *origin, *duration, warm, req, cmp, mkOpts))
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
		if err := replayWorkload(stdout, sys, *workFile, cmp, *duration); err != nil {
			return exitCode(stderr, err)
		}
		dumpTenants(stdout, sys)
		if err := dumpTelemetry(stdout, sys, *telOut); err != nil {
			return exitCode(stderr, err)
		}
		return exitCode(stderr, dumpDecisions(stdout, sys, *decOut))
	}
	fmt.Fprintf(stdout, "submitting %v at %d Kbps (%d units/sec) via %s from node %d\n",
		chain, *rateKbps, rateUnits, cmp, *origin)
	comp, err := sys.Submit(*origin, req, cmp)
	if err != nil {
		return exitCode(stderr, fmt.Errorf("composition failed: %v", err))
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(comp.Graph.DOT()), 0o644); err != nil {
			return exitCode(stderr, fmt.Errorf("dot: %v", err))
		}
		fmt.Fprintf(stdout, "wrote execution graph to %s\n", *dotOut)
	}
	fmt.Fprintf(stdout, "\ncomposed onto %d hosts:\n", comp.NumHosts())
	for _, p := range comp.Placements() {
		fmt.Fprintf(stdout, "  substream %d stage %d %-12s -> %s (%.0f units/sec)\n",
			p.Substream, p.Stage, p.Service, p.Host.Addr, p.Rate)
	}
	sys.Run(*duration)
	s := comp.Stats()
	fmt.Fprintf(stdout, "\nafter %v of streaming:\n", *duration)
	fmt.Fprintf(stdout, "  emitted      %d units\n", s.Emitted)
	fmt.Fprintf(stdout, "  delivered    %d units (%.1f%%)\n", s.Received, 100*s.DeliveredFraction())
	fmt.Fprintf(stdout, "  timely       %.1f%% of delivered\n", 100*s.TimelyFraction())
	fmt.Fprintf(stdout, "  out of order %d units\n", s.OutOfOrder)
	fmt.Fprintf(stdout, "  mean delay   %v\n", s.MeanDelay.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  mean jitter  %v\n", s.MeanJitter.Round(time.Millisecond))

	if buf != nil {
		fmt.Fprintf(stdout, "\ntrace: %d events recorded\n", buf.Total())
		fmt.Fprintln(stdout, "\nper-hop latency (substream 0):")
		for _, sl := range buf.StageLatencies(req.ID, 0) {
			fmt.Fprintf(stdout, "  -> stage %d: %v mean over %d units\n", sl.Stage, sl.Mean.Round(time.Millisecond), sl.Count)
		}
		if drops := buf.DropsByCause(); len(drops) > 0 {
			fmt.Fprintln(stdout, "\ndrops by cause:")
			for cause, n := range drops {
				fmt.Fprintf(stdout, "  %-10s %d\n", cause, n)
			}
		}
		fmt.Fprintln(stdout, "\nsample unit timeline (seq 50):")
		fmt.Fprint(stdout, trace.FormatTimeline(buf.Timeline(req.ID, 0, 50)))
	}
	dumpTenants(stdout, sys)
	dumpFederation(stdout, sys, *origin, *clusters)
	if err := dumpTelemetry(stdout, sys, *telOut); err != nil {
		return exitCode(stderr, err)
	}
	return exitCode(stderr, dumpDecisions(stdout, sys, *decOut))
}

// exitCode reports err on stderr and returns the exit code it calls for.
func exitCode(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, err)
	return 1
}

// multiRun repeats the single-request scenario on n independent
// deployments seeded base..base+n-1, fanned out across a bounded worker
// pool. Each run builds its own System, so nothing is shared; results
// print in seed order regardless of completion order.
func multiRun(w io.Writer, n, workers int, base int64, origin int, duration, warmup time.Duration, req rasc.Request, cmp rasc.Composer, mkOpts func(int64) []rasc.Option) error {
	type outcome struct {
		hosts int
		stats rasc.DeliveryStats
		err   error
	}
	results := make([]outcome, n)
	fmt.Fprintf(w, "running %d deployments (seeds %d..%d) via %s\n", n, base, base+int64(n)-1, cmp)
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
		return fmt.Errorf("runs: %v", err)
	}
	var agg rasc.DeliveryStats
	composed := 0
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(w, "  seed %-3d rejected: %v\n", base+int64(i), r.err)
			continue
		}
		composed++
		agg.Emitted += r.stats.Emitted
		agg.Received += r.stats.Received
		agg.Timely += r.stats.Timely
		agg.OutOfOrder += r.stats.OutOfOrder
		fmt.Fprintf(w, "  seed %-3d hosts=%d delivered %.1f%% timely %.1f%% delay %v\n",
			base+int64(i), r.hosts, 100*r.stats.DeliveredFraction(),
			100*r.stats.TimelyFraction(), r.stats.MeanDelay.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\naggregate: composed %d/%d, delivered %.1f%%, timely %.1f%%\n",
		composed, n, 100*agg.DeliveredFraction(), 100*agg.TimelyFraction())
	return nil
}

// dumpTenants prints the admission gate's posture (a no-op without
// -admission / -max-tenants).
func dumpTenants(w io.Writer, sys *rasc.System) {
	tenants, ok := sys.Tenants()
	if !ok {
		return
	}
	tt, _ := sys.TenantGateTotals()
	fmt.Fprintf(w, "\nadmission gate: %d admitted, %d queued, %.0f of %.0f bps allocated, %d preemptions, %d rejections\n",
		tt.Admitted, tt.Queued, tt.AllocatedBps, tt.CapacityBps, tt.Preemptions, tt.Rejections)
	for _, t := range tenants {
		fmt.Fprintf(w, "  %-12s %-11s %-8s demand %8.0f bps cap %8.0f bps\n",
			t.App, t.Priority, t.State, t.DemandBps, t.CapBps)
	}
}

// dumpFederation prints the origin's federation posture — its cluster,
// committed cross-cluster hand-offs and every cluster's boundary-link
// accounting (a no-op without -clusters).
func dumpFederation(w io.Writer, sys *rasc.System, origin, clusters int) {
	refs, ok := sys.Handoffs(origin)
	if !ok {
		return
	}
	fmt.Fprintf(w, "\nfederation: origin in cluster %s, %d cross-cluster hand-off(s)\n",
		sys.ClusterOf(origin), len(refs))
	for _, h := range refs {
		fmt.Fprintf(w, "  %s substream %d -> %s (%.0f bps across the boundary)\n",
			h.App, h.Substream, h.RemoteCluster, h.DebitBps)
	}
	for k := 0; k < clusters; k++ {
		links, _ := sys.BoundaryLinks(k)
		for _, l := range links {
			fmt.Fprintf(w, "  cluster c%d link %s: %.0f/%.0f bps reserved, %d credit(s)\n",
				k, l.Link, l.ReservedBps, l.CapacityBps, l.Credits)
		}
	}
}

// dumpTelemetry writes the final runtime telemetry snapshot alongside the
// result tables: to w for "-", to a file otherwise, nowhere when unset.
func dumpTelemetry(w io.Writer, sys *rasc.System, dest string) error {
	if dest == "" {
		return nil
	}
	snap := sys.TelemetrySnapshot()
	if dest == "-" {
		fmt.Fprintf(w, "\nruntime telemetry:\n%s", snap)
		return nil
	}
	if err := os.WriteFile(dest, []byte(snap), 0o644); err != nil {
		return fmt.Errorf("telemetry: %v", err)
	}
	fmt.Fprintf(w, "\nwrote telemetry snapshot to %s\n", dest)
	return nil
}

// dumpDecisions writes the deployment's adaptation decision journal: as
// readable text to w for "-", as JSON to a file otherwise, nowhere when
// unset.
func dumpDecisions(w io.Writer, sys *rasc.System, dest string) error {
	if dest == "" {
		return nil
	}
	ds := sys.Decisions()
	if dest == "-" {
		fmt.Fprintf(w, "\nadaptation decisions (%d):\n%s", len(ds), trace.FormatDecisions(ds))
		return nil
	}
	b, err := json.MarshalIndent(ds, "", "  ")
	if err == nil {
		err = os.WriteFile(dest, b, 0o644)
	}
	if err != nil {
		return fmt.Errorf("decisions: %v", err)
	}
	fmt.Fprintf(w, "\nwrote %d adaptation decisions to %s\n", len(ds), dest)
	return nil
}
