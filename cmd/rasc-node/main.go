// Command rasc-node runs a live RASC node over TCP: it joins (or starts)
// an overlay, announces its services, and serves discovery, monitoring,
// instantiation and streaming to its peers. With -submit it additionally
// composes and runs a request once joined, printing delivery statistics
// every few seconds.
//
// Start a ring on one terminal and join it from others:
//
//	rasc-node -listen 127.0.0.1:4000 -services filter,encrypt
//	rasc-node -listen 127.0.0.1:4001 -bootstrap 127.0.0.1:4000 -services transcode
//	rasc-node -listen 127.0.0.1:4002 -bootstrap 127.0.0.1:4000 \
//	    -submit filter,transcode -rate 100
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/live"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, runs the node until ctx is done and
// returns the exit code (2 for a usage error, 1 when the node cannot start
// or its submission fails). Reports go to stdout, diagnostics to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rasc-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		bootstrap   = fs.String("bootstrap", "", "existing node to join through (empty: start a new overlay)")
		name        = fs.String("name", "", "node name (seeds the overlay ID)")
		svcList     = fs.String("services", "", "comma-separated services to announce")
		submit      = fs.String("submit", "", "service chain to compose once joined (e.g. filter,transcode)")
		submitAfter = fs.Duration("submit-after", 0, "wait this long after joining before -submit, so DHT registrations and border cluster summaries converge first")
		composer    = fs.String("composer", "mincost", "composer for -submit")
		rateKbps    = fs.Int("rate", 100, "requested rate in Kbps for -submit")
		unit        = fs.Int("unit", 1250, "data unit size in bytes")
		udp         = fs.Bool("udp", false, "send stream data over UDP (control stays on TCP)")
		admin       = fs.String("admin", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		refresh     = fs.Duration("refresh-interval", 2*time.Second, "how often service registrations are re-published to the DHT")
		ttl         = fs.Duration("record-ttl", 10*time.Second, "DHT registration lifetime without a refresh (must exceed -refresh-interval)")
		noGossip    = fs.Bool("no-gossip", false, "disable the gossip membership protocol (DHT-only lookups, fetch-time stats)")
		probeIvl    = fs.Duration("gossip-probe-interval", 0, "gossip failure-detector probe period (0: default 1s)")
		suspicion   = fs.Duration("gossip-suspicion-timeout", 0, "how long a suspect member may refute before it is declared dead (0: default 3s)")

		cluster     = fs.String("cluster", "", "federation cluster this node belongs to (empty: flat deployment); requires gossip")
		borderPeers = fs.String("border-peers", "", "comma-separated addresses of remote-cluster border nodes to exchange cluster summaries with")
		boundaryBps = fs.Float64("boundary-bps", 0, "advertised boundary-link capacity in bits/sec for cross-cluster hand-offs (0: default 100 Mbps)")

		breakerFails = fs.Int("breaker-threshold", 0, "consecutive delivery failures before a peer's circuit opens (0: default 5)")
		breakerOpen  = fs.Duration("breaker-open-timeout", 0, "how long an open circuit waits before probing the peer again (0: default 2s)")
		chaosDrop    = fs.Float64("chaos-drop", 0, "fault injection: probability each outbound message is dropped")
		chaosDelay   = fs.Duration("chaos-delay", 0, "fault injection: fixed extra delay on every outbound message")
		chaosJitter  = fs.Duration("chaos-delay-jitter", 0, "fault injection: uniform extra delay in [0, jitter)")
		chaosSeed    = fs.Int64("chaos-seed", 0, "fault injection: seed for reproducible fault sequences (0: wall clock)")

		adaptIvl = fs.Duration("adapt-interval", 0, "enable the adaptation control plane with this delivery-rate check period (0: disabled)")

		admission    = fs.Bool("admission", false, "front submissions with the multi-tenant admission gate (priority classes, fair-share caps, admission queue), served at /debug/rasc/tenants")
		admissionBps = fs.Float64("admission-bps", 0, "admission gate capacity budget in bits/sec (0: derive from the node's link capacity)")
		maxTenants   = fs.Int("max-tenants", 0, "bound on concurrently admitted applications (0: unlimited; implies -admission)")
		priority     = fs.String("priority", "", "tenancy class of the -submit request: critical, standard or best-effort")

		batchUnits = fs.Int("batch-units", 0, "coalesce up to N data units per destination into one wire message (0 or 1: every unit is its own message)")
		flushIvl   = fs.Duration("flush-interval", 0, "flush an open data-unit batch no later than this after its first unit, and tick sources no more often (0: 2ms when -batch-units > 1, else none)")
		shards     = fs.Int("shards", 0, "simulated CPUs per node; a substream stays on one (0 or 1: one CPU, as in the paper)")

		traceEvents = fs.Int("trace-events", 0, "attach a per-unit event buffer of this capacity, served at /debug/rasc/trace (0: disabled)")
		journalCap  = fs.Int("decision-journal", 0, "adaptation decision journal retention, served at /debug/rasc/decisions (0: default 256)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *unit < 1:
		fmt.Fprintf(stderr, "-unit must be at least 1 byte, got %d\n", *unit)
		return 2
	case *adaptIvl < 0:
		fmt.Fprintf(stderr, "-adapt-interval must not be negative, got %v\n", *adaptIvl)
		return 2
	}
	if _, err := core.ByName(*composer); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var services []string
	if *svcList != "" {
		services = strings.Split(*svcList, ",")
	}
	var borders []string
	if *borderPeers != "" {
		borders = strings.Split(*borderPeers, ",")
	}
	var adaptation *stream.AdaptationConfig
	if *adaptIvl > 0 {
		adaptation = &stream.AdaptationConfig{Interval: *adaptIvl}
	}
	pri, err := spec.ParsePriority(*priority)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var tenancy *tenant.Config
	if *admission || *maxTenants > 0 {
		tenancy = &tenant.Config{
			CapacityBps: *admissionBps,
			MaxTenants:  *maxTenants,
		}
	}
	cfg := live.Config{
		Listen:          *listen,
		Name:            *name,
		Bootstrap:       *bootstrap,
		Services:        services,
		UDPData:         *udp,
		RefreshInterval: *refresh,
		RecordTTL:       *ttl,
		DisableGossip:   *noGossip,
		Gossip: gossip.Config{
			ProbeInterval:    *probeIvl,
			SuspicionTimeout: *suspicion,
		},
		Cluster:     *cluster,
		BorderPeers: borders,
		BoundaryBps: *boundaryBps,
		Resilience: transport.ResilientConfig{
			Breaker: transport.BreakerConfig{
				FailureThreshold: *breakerFails,
				OpenTimeout:      *breakerOpen,
			},
		},
		Chaos: transport.ChaosConfig{
			Seed:        *chaosSeed,
			Drop:        *chaosDrop,
			Delay:       *chaosDelay,
			DelayJitter: *chaosJitter,
		},
		Adaptation: adaptation,
		Tenancy:    tenancy,
		DataPlane: stream.DataPlaneConfig{
			BatchUnits:    *batchUnits,
			FlushInterval: *flushIvl,
			Shards:        *shards,
		},
		TraceEvents:     *traceEvents,
		DecisionJournal: *journalCap,
	}
	if err := cfg.Check(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	node, err := live.Start(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "start: %v\n", err)
		return 1
	}
	defer node.Close()
	if *admin != "" {
		adm, err := node.ServeAdmin(*admin)
		if err != nil {
			fmt.Fprintf(stderr, "admin: %v\n", err)
			return 1
		}
		defer adm.Close()
		fmt.Fprintf(stdout, "admin endpoint at http://%s (/metrics /healthz /debug/rasc/* /debug/pprof)\n", adm.Addr())
	}
	fmt.Fprintf(stdout, "node up at %s", node.Addr())
	if len(services) > 0 {
		fmt.Fprintf(stdout, " offering %v", services)
	}
	fmt.Fprintln(stdout)

	if *submit != "" {
		if *submitAfter > 0 {
			select {
			case <-time.After(*submitAfter):
			case <-ctx.Done():
				return 0
			}
		}
		chain := strings.Split(*submit, ",")
		rateUnits := *rateKbps * 1000 / (*unit * 8)
		if rateUnits < 1 {
			rateUnits = 1
		}
		req := spec.Request{
			ID:         fmt.Sprintf("cli-%d", time.Now().Unix()),
			UnitBytes:  *unit,
			Substreams: []spec.Substream{{Services: chain, Rate: rateUnits}},
			Priority:   pri,
		}
		// An interrupt while composition is in flight cancels the wait.
		graph, err := node.SubmitContext(ctx, req, *composer, 10*time.Second)
		if err != nil {
			fmt.Fprintf(stderr, "submit: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "composed %v onto %d placement(s):\n", chain, len(graph.Placements))
		for _, p := range graph.Placements {
			fmt.Fprintf(stdout, "  stage %d %-12s -> %s (%.0f units/sec)\n", p.Stage, p.Service, p.Host.Addr, p.Rate)
		}
		ticker := time.NewTicker(3 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s := node.Stats(req.ID, 0)
				fmt.Fprintf(stdout, "emitted=%d delivered=%d delay=%v jitter=%v\n",
					s.Emitted, s.Received, s.MeanDelay.Round(time.Millisecond), s.MeanJitter.Round(time.Millisecond))
			case <-ctx.Done():
				return 0
			}
		}
	}
	<-ctx.Done()
	return 0
}
