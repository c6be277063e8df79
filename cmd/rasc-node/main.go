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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/live"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/transport"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		bootstrap   = flag.String("bootstrap", "", "existing node to join through (empty: start a new overlay)")
		name        = flag.String("name", "", "node name (seeds the overlay ID)")
		svcList     = flag.String("services", "", "comma-separated services to announce")
		submit      = flag.String("submit", "", "service chain to compose once joined (e.g. filter,transcode)")
		submitAfter = flag.Duration("submit-after", 0, "wait this long after joining before -submit, so DHT registrations and border cluster summaries converge first")
		composer    = flag.String("composer", "mincost", "composer for -submit")
		rateKbps    = flag.Int("rate", 100, "requested rate in Kbps for -submit")
		unit        = flag.Int("unit", 1250, "data unit size in bytes")
		udp         = flag.Bool("udp", false, "send stream data over UDP (control stays on TCP)")
		admin       = flag.String("admin", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		refresh     = flag.Duration("refresh-interval", 2*time.Second, "how often service registrations are re-published to the DHT")
		ttl         = flag.Duration("record-ttl", 10*time.Second, "DHT registration lifetime without a refresh (must exceed -refresh-interval)")
		noGossip    = flag.Bool("no-gossip", false, "disable the gossip membership protocol (DHT-only lookups, fetch-time stats)")
		probeIvl    = flag.Duration("gossip-probe-interval", 0, "gossip failure-detector probe period (0: default 1s)")
		suspicion   = flag.Duration("gossip-suspicion-timeout", 0, "how long a suspect member may refute before it is declared dead (0: default 3s)")

		cluster     = flag.String("cluster", "", "federation cluster this node belongs to (empty: flat deployment); requires gossip")
		borderPeers = flag.String("border-peers", "", "comma-separated addresses of remote-cluster border nodes to exchange cluster summaries with")
		boundaryBps = flag.Float64("boundary-bps", 0, "advertised boundary-link capacity in bits/sec for cross-cluster hand-offs (0: default 100 Mbps)")

		noResilience = flag.Bool("no-resilience", false, "send frames synchronously instead of through the async retry/breaker pipeline")
		breakerFails = flag.Int("breaker-threshold", 0, "consecutive delivery failures before a peer's circuit opens (0: default 5)")
		breakerOpen  = flag.Duration("breaker-open-timeout", 0, "how long an open circuit waits before probing the peer again (0: default 2s)")
		chaosDrop    = flag.Float64("chaos-drop", 0, "fault injection: probability each outbound message is dropped")
		chaosDelay   = flag.Duration("chaos-delay", 0, "fault injection: fixed extra delay on every outbound message")
		chaosJitter  = flag.Duration("chaos-delay-jitter", 0, "fault injection: uniform extra delay in [0, jitter)")
		chaosSeed    = flag.Int64("chaos-seed", 0, "fault injection: seed for reproducible fault sequences (0: wall clock)")

		adaptIvl  = flag.Duration("adapt-interval", 0, "enable the adaptation control plane with this delivery-rate check period (0: disabled)")
		adaptFull = flag.Bool("adapt-full-only", false, "disable incremental reallocation: every adaptation action tears down and re-composes in full")

		admission    = flag.Bool("admission", false, "front submissions with the multi-tenant admission gate (priority classes, fair-share caps, admission queue), served at /debug/rasc/tenants")
		admissionBps = flag.Float64("admission-bps", 0, "admission gate capacity budget in bits/sec (0: derive from the node's link capacity)")
		maxTenants   = flag.Int("max-tenants", 0, "bound on concurrently admitted applications (0: unlimited; implies -admission)")
		priority     = flag.String("priority", "", "tenancy class of the -submit request: critical, standard or best-effort")
		fairDeadband = flag.Float64("fair-deadband", 0, "suppress fair_share_changed notifications while a tenant's cap moves less than this relative fraction (0: notify on every move)")
		capCoalesce  = flag.Duration("cap-coalesce", 0, "collapse cap fan-out bursts within this window into one sweep carrying the final caps (0: immediate fan-out)")
		hostLedger   = flag.Bool("per-host-ledger", false, "account admission capacity per host, fed from gossip membership and monitoring digests, instead of one aggregate budget (implies -admission)")

		batchUnits = flag.Int("batch-units", 0, "coalesce up to N data units per destination into one wire message (0 or 1: every unit is its own message)")
		flushIvl   = flag.Duration("flush-interval", 0, "flush an open data-unit batch no later than this after its first unit, and tick sources no more often (0: 2ms when -batch-units > 1, else none)")
		shards     = flag.Int("shards", 0, "simulated CPUs per node; a substream stays on one (0 or 1: one CPU, as in the paper)")

		traceEvents = flag.Int("trace-events", 0, "attach a per-unit event buffer of this capacity, served at /debug/rasc/trace (0: disabled)")
		journalCap  = flag.Int("decision-journal", 0, "adaptation decision journal retention, served at /debug/rasc/decisions (0: default 256)")
	)
	flag.Parse()

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
		cfg := stream.AdaptationConfig{Interval: *adaptIvl}
		cfg.Control.DisableIncremental = *adaptFull
		adaptation = &cfg
	}
	pri, err := spec.ParsePriority(*priority)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var tenancy *tenant.Config
	if *admission || *maxTenants > 0 || *hostLedger {
		tenancy = &tenant.Config{
			CapacityBps:       *admissionBps,
			MaxTenants:        *maxTenants,
			FairShareDeadband: *fairDeadband,
			CapCoalesceWindow: *capCoalesce,
			PerHostLedger:     *hostLedger,
		}
	}
	node, err := live.Start(live.Config{
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
		Cluster:           *cluster,
		BorderPeers:       borders,
		BoundaryBps:       *boundaryBps,
		DisableResilience: *noResilience,
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
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "start: %v\n", err)
		os.Exit(1)
	}
	defer node.Close()
	if *admin != "" {
		adm, err := node.ServeAdmin(*admin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "admin: %v\n", err)
			os.Exit(1)
		}
		defer adm.Close()
		fmt.Printf("admin endpoint at http://%s (/metrics /healthz /debug/rasc/* /debug/pprof)\n", adm.Addr())
	}
	fmt.Printf("node up at %s", node.Addr())
	if len(services) > 0 {
		fmt.Printf(" offering %v", services)
	}
	fmt.Println()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *submit != "" {
		if *submitAfter > 0 {
			select {
			case <-time.After(*submitAfter):
			case <-ctx.Done():
				return
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
			fmt.Fprintf(os.Stderr, "submit: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("composed %v onto %d placement(s):\n", chain, len(graph.Placements))
		for _, p := range graph.Placements {
			fmt.Printf("  stage %d %-12s -> %s (%.0f units/sec)\n", p.Stage, p.Service, p.Host.Addr, p.Rate)
		}
		ticker := time.NewTicker(3 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s := node.Stats(req.ID, 0)
				fmt.Printf("emitted=%d delivered=%d delay=%v jitter=%v\n",
					s.Emitted, s.Received, s.MeanDelay.Round(time.Millisecond), s.MeanJitter.Round(time.Millisecond))
			case <-ctx.Done():
				return
			}
		}
	}
	<-ctx.Done()
}
