// Package rasc is a Go implementation of RASC (RAte Splitting
// Composition), the distributed stream processing system of Drougas and
// Kalogeraki, "RASC: Dynamic Rate Allocation for Distributed Stream
// Processing Applications" (IPDPS 2007).
//
// RASC composes stream-processing applications over a Pastry-style
// overlay: services are discovered through a DHT, node resources (input
// and output bandwidth) are monitored over sliding windows, data units are
// scheduled with a least-laxity-first policy, and applications are
// composed by reducing rate allocation to a minimum-cost flow problem —
// splitting a service across several component instances when no single
// node can carry the requested rate.
//
// The package offers a deterministic simulated deployment (a wide-area
// network model standing in for the paper's PlanetLab testbed) through
// which requests can be submitted with RASC's min-cost composer or the
// paper's two baselines (random and greedy placement), and delivery
// metrics — throughput, end-to-end delay, jitter, ordering, timeliness —
// can be measured. See the examples directory and cmd/rasc-bench for the
// paper's full evaluation.
package rasc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/telemetry"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
)

// Request is a stream-processing request: a service request graph of
// substreams plus per-substream rate requirements.
type Request = spec.Request

// Substream is one sequential chain of services in a request.
type Substream = spec.Substream

// Priority is an application's tenancy class, set on Request.Priority: it
// decides the application's weight in the fair-share allocation and its
// preemption order under contention (deployments built WithTenancy).
type Priority = spec.Priority

// The tenancy classes. The zero value is Standard, so requests that never
// set a priority keep their behavior.
const (
	Critical   = spec.Critical
	Standard   = spec.Standard
	BestEffort = spec.BestEffort
)

// ParsePriority converts a flag or config label ("critical", "standard",
// "best-effort"; empty = Standard) into a Priority.
func ParsePriority(s string) (Priority, error) { return spec.ParsePriority(s) }

// ServiceDef describes one stream-processing service.
type ServiceDef = spec.ServiceDef

// Catalog maps service names to definitions.
type Catalog = services.Catalog

// StandardCatalog returns the ten unit-ratio services used in the paper's
// experiments.
func StandardCatalog() Catalog { return services.Standard() }

// ExtendedCatalog adds services with non-unit rate and byte ratios
// (downsample, upsample, shrink); every composer accepts them.
func ExtendedCatalog() Catalog { return services.Extended() }

// Options is the configuration of a simulated RASC deployment that the
// Option functions passed to New fill in.
type Options struct {
	// Nodes is the deployment size (default 32, the paper's testbed).
	Nodes int
	// Seed makes the deployment and every run on it reproducible.
	Seed int64
	// Catalog defaults to StandardCatalog().
	Catalog Catalog
	// ServicesPerNode is how many catalog services each node offers
	// (default 5).
	ServicesPerNode int
	// MinBps/MaxBps bound per-node access-link capacity
	// (default 150 Kbps – 1.2 Mbps, the calibrated experiment range).
	MinBps, MaxBps float64
	// SchedPolicy selects the node scheduler: "llf" (default), "edf" or
	// "fifo".
	SchedPolicy string
	// EnableGossip runs the SWIM-style membership protocol on every node:
	// service lookups are answered from the gossip view (DHT fallback),
	// composition reads gossip-disseminated monitoring digests instead of
	// fetching per-host snapshots, and a detected node death immediately
	// re-composes the applications placed on it.
	EnableGossip bool
	// Chaos, when set, wraps every node's transport endpoint with seeded
	// fault injection (see WithChaos).
	Chaos *ChaosConfig
	// Adaptation, when set, enables the event-driven adaptation control
	// plane on every node (see WithAdaptation).
	Adaptation *AdaptationConfig
	// Tenancy, when set, fronts every node's submission path with one
	// shared admission gate (see WithTenancy).
	Tenancy *TenancyConfig
	// DataPlane, when set, sizes every node's data plane: units per wire
	// message, flush deadline, simulated CPUs (see WithDataPlane).
	DataPlane *DataPlaneConfig
	// Federation, when set, shards the deployment into federated
	// clusters joined by the boundary protocol (see WithFederation).
	// Implies EnableGossip.
	Federation *FederationConfig
}

// System is a running simulated RASC deployment.
type System struct {
	d *deploy.System
}

// newSystem is New's construction path: it applies the paper's defaults
// to the filled-in options and assembles the deployment.
func newSystem(opts Options) *System {
	if opts.Nodes == 0 {
		opts.Nodes = 32
	}
	if opts.MinBps == 0 {
		opts.MinBps = 1.5e5
	}
	if opts.MaxBps == 0 {
		opts.MaxBps = 1.2e6
	}
	tc := netsim.TopologyConfig{
		Nodes:  opts.Nodes,
		MinBps: opts.MinBps,
		MaxBps: opts.MaxBps,
	}
	// A multi-cluster federation maps clusters onto topology sites, so the
	// wide-area (inter-site) latency distribution is exactly the
	// inter-cluster one. A single cluster keeps the default site layout —
	// part of the bit-identical pin against flat deployments.
	if opts.Federation != nil && opts.Federation.Clusters > 1 {
		tc.Sites = opts.Federation.Clusters
	}
	topo := netsim.PlanetLabTopology(tc, opts.Seed)
	var dataPlane stream.DataPlaneConfig
	if opts.DataPlane != nil {
		dataPlane = *opts.DataPlane
	}
	d := deploy.NewSystem(deploy.SystemOptions{
		Nodes:            opts.Nodes,
		Seed:             opts.Seed,
		Topology:         topo,
		MaxLinkBacklog:   300 * time.Millisecond,
		CongestionJitter: 0.5,
		Catalog:          opts.Catalog,
		ServicesPerNode:  opts.ServicesPerNode,
		SchedPolicy:      opts.SchedPolicy,
		ProcJitter:       0.2,
		HeterogeneousCPU: true,
		EnableGossip:     opts.EnableGossip,
		Chaos:            opts.Chaos,
		Adaptation:       opts.Adaptation,
		Tenancy:          opts.Tenancy,
		DataPlane:        dataPlane,
		Federation:       opts.Federation,
		Gossip:           gossip.Config{ProbeTimeout: deploy.GossipProbeTimeout},
	})
	return &System{d: d}
}

// Nodes returns the deployment size.
func (s *System) Nodes() int { return len(s.d.Engines) }

// ServicesAt lists the services node i announced.
func (s *System) ServicesAt(i int) []string { return s.d.Placement[i] }

// NodeAddr returns node i's transport address (as it appears in placement
// listings).
func (s *System) NodeAddr(i int) string { return string(s.d.Engines[i].Node().Addr()) }

// Now returns the current virtual time.
func (s *System) Now() time.Duration { return s.d.Sim.Now() }

// Run advances the simulation by d of virtual time (streams keep flowing).
func (s *System) Run(d time.Duration) {
	s.d.Sim.RunUntil(s.d.Sim.Now() + d)
}

// Composition is a successfully composed application.
type Composition struct {
	origin int
	sys    *System
	// Graph is the execution graph: component placements with assigned
	// rates and the data-flow edges between them.
	Graph *core.ExecutionGraph
}

// Placements returns the composed component instances.
func (c *Composition) Placements() []core.Placement { return c.Graph.Placements }

// NumHosts returns how many distinct nodes host the application.
func (c *Composition) NumHosts() int { return core.NumHosts(c.Graph) }

// Submit composes and starts a request from the given origin node using
// the given composer, advancing virtual time until composition completes.
// On success the application is streaming; observe it with Run and
// DeliveryStats. Equivalent to SubmitContext with context.Background().
//
// Failures wrap the facade's sentinel errors — ErrOriginOutOfRange,
// ErrUnknownComposer, ErrUnknownService, ErrRequestIDTooLong,
// ErrNoComposition, ErrDiscovery, ErrNoDirectory, ErrInstantiation,
// ErrSubmitTimeout — so callers branch with errors.Is.
func (s *System) Submit(origin int, req Request, composer Composer) (*Composition, error) {
	return s.SubmitContext(context.Background(), origin, req, composer)
}

// submitTimeout bounds, in virtual time, how long Submit waits for a
// composition to complete (ErrSubmitTimeout).
const submitTimeout = 60 * time.Second

// SubmitContext is Submit with cancellation: the loop that advances
// virtual time while waiting for composition checks ctx between steps and
// returns ctx.Err() (wrapped, so errors.Is matches context.Canceled or
// context.DeadlineExceeded) as soon as it is done. The submission is then
// torn down: whatever it started is rolled back as virtual time advances.
// Virtual time already spent is not rolled back.
func (s *System) SubmitContext(ctx context.Context, origin int, req Request, composer Composer) (*Composition, error) {
	if origin < 0 || origin >= len(s.d.Engines) {
		return nil, fmt.Errorf("%w: origin %d, %d nodes", ErrOriginOutOfRange, origin, len(s.d.Engines))
	}
	if _, err := ParseComposer(string(composer)); err != nil {
		return nil, err
	}
	for _, sub := range req.Substreams {
		for _, name := range sub.Services {
			if _, ok := s.d.Options.Catalog[name]; !ok {
				return nil, fmt.Errorf("%w: %q in request %q", ErrUnknownService, name, req.ID)
			}
		}
	}
	comp, err := core.ByName(string(composer))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownComposer, composer)
	}
	var graph *core.ExecutionGraph
	var submitErr error
	done := false
	s.d.Engines[origin].Submit(req, comp, 10*time.Second, func(g *core.ExecutionGraph, err error) {
		graph, submitErr, done = g, err, true
	})
	deadline := s.d.Sim.Now() + submitTimeout
	for !done && s.d.Sim.Now() < deadline {
		if err := ctx.Err(); err != nil {
			s.d.Engines[origin].Teardown(&core.ExecutionGraph{Request: req}, 10*time.Second)
			return nil, fmt.Errorf("rasc: submission of %s: %w", req.ID, err)
		}
		s.d.Sim.RunUntil(s.d.Sim.Now() + 100*time.Millisecond)
	}
	if !done {
		return nil, fmt.Errorf("%w: %s within %v of virtual time", ErrSubmitTimeout, req.ID, submitTimeout)
	}
	if submitErr != nil {
		if errors.Is(submitErr, core.ErrNoFeasiblePlacement) {
			return nil, fmt.Errorf("%w: request %q: %w", ErrNoComposition, req.ID, submitErr)
		}
		return nil, submitErr
	}
	return &Composition{origin: origin, sys: s, Graph: graph}, nil
}

// Stop tears the application down on every host.
func (c *Composition) Stop() {
	c.sys.d.Engines[c.origin].Teardown(c.Graph, 10*time.Second)
	c.sys.Run(time.Second)
}

// DeliveryStats aggregates a composition's delivery metrics across its
// substreams.
type DeliveryStats struct {
	// Emitted is what the sources emitted, in sink units: each
	// substream's source count divided by its stage-0 scale s_0 (the
	// source runs at s_0 times the rate the sink receives; spec.Chain),
	// rounded. It is what the sinks would receive with nothing lost, so
	// Received/Emitted is a delivery fraction for any rate ratios, and
	// the raw source count for a chain of ratio 1.
	Emitted    int64
	Received   int64
	Timely     int64
	OutOfOrder int64
	// Stalls counts rebuffering events when the request enables the
	// playout model (Request.PlayoutDelay > 0).
	Stalls     int64
	MeanDelay  time.Duration
	MeanJitter time.Duration
}

// DeliveredFraction is Received/Emitted (0 when nothing was emitted).
func (d DeliveryStats) DeliveredFraction() float64 {
	if d.Emitted == 0 {
		return 0
	}
	return float64(d.Received) / float64(d.Emitted)
}

// TimelyFraction is Timely/Received (0 when nothing was delivered).
func (d DeliveryStats) TimelyFraction() float64 {
	if d.Received == 0 {
		return 0
	}
	return float64(d.Timely) / float64(d.Received)
}

// Throughput is a typed per-substream data-plane snapshot: units and bytes
// emitted by the source, forwarded between components, dropped for any
// cause (queue overflow, missed laxity, uplink and downlink congestion),
// and delivered to the sink.
type Throughput = stream.Throughput

// Throughput aggregates the composition's data-plane counters across every
// node of the deployment, one snapshot per substream in order. Unlike
// Stats (origin-local, source counters reset by teardown) it sees the
// whole pipeline — intermediate-host forwards and drops included — and its
// counters survive Stop, so emitted = delivered + dropped + in-flight
// holds over a drained run.
func (c *Composition) Throughput() []Throughput {
	id := c.Graph.Request.ID
	out := make([]Throughput, len(c.Graph.Request.Substreams))
	for l := range out {
		out[l] = Throughput{Req: id, Substream: l}
		for _, eng := range c.sys.d.Engines {
			out[l].Accumulate(eng.Throughput(id, l))
		}
	}
	return out
}

// Stats reads the composition's current delivery metrics at its origin;
// Throughput adds forwards and drops across every engine.
func (c *Composition) Stats() DeliveryStats {
	eng := c.sys.d.Engines[c.origin]
	var out DeliveryStats
	var sumDelay, sumJitter time.Duration
	var chain []spec.Stage
	for l, ss := range c.Graph.Request.Substreams {
		chain = spec.Chain(chain[:0], c.sys.d.Options.Catalog, ss.Services, c.Graph.Request.UnitBytes)
		emitted := eng.Throughput(c.Graph.Request.ID, l).EmittedUnits
		out.Emitted += int64(math.Round(float64(emitted) / chain[0].Scale))
		sink := eng.Sink(c.Graph.Request.ID, l)
		if sink == nil {
			continue
		}
		out.Received += sink.Received
		out.Timely += sink.Timely
		out.OutOfOrder += sink.OutOfOrder
		out.Stalls += sink.Stalls
		sumDelay += sink.TotalDelay
		sumJitter += sink.TotalJitter
	}
	if out.Received > 0 {
		out.MeanDelay = sumDelay / time.Duration(out.Received)
		out.MeanJitter = sumJitter / time.Duration(out.Received)
	}
	return out
}

// Kill fail-stops node i: it stops sending and receiving. Peers observe
// timeouts; enabled adaptation re-composes affected applications.
func (s *System) Kill(i int) { s.d.Kill(i) }

// EnableAdaptation turns on the origin-side adaptation loop at node i:
// applications submitted from that node are re-composed when a substream's
// delivery rate drops below half its requirement (checked every interval).
func (s *System) EnableAdaptation(i int, interval time.Duration) {
	s.d.Engines[i].EnableAdaptation(stream.AdaptationConfig{Interval: interval})
}

// Recompositions reports how many adaptation actions node i has attempted
// (incremental reallocations and full recompositions combined).
func (s *System) Recompositions(i int) int64 { return s.d.Engines[i].Recompositions() }

// Reallocations reports how many of node i's adaptation actions took the
// incremental path — a delta solve that shifted split ratios away from
// degraded hosts without tearing the application down. Always a subset of
// Recompositions.
func (s *System) Reallocations(i int) int64 { return s.d.Engines[i].Reallocations() }

// MembershipSummary is a node's gossip view at a glance: alive, suspect
// and dead member counts plus the age of the stalest monitoring digest it
// holds.
type MembershipSummary = gossip.Summary

// Membership returns node i's gossip membership summary. The second
// result is false when the deployment runs without gossip.
func (s *System) Membership(i int) (MembershipSummary, bool) {
	if s.d.Gossip == nil || s.d.Gossip[i] == nil {
		return MembershipSummary{}, false
	}
	return s.d.Gossip[i].Summary(), true
}

// ClusterOf returns the federation cluster node i belongs to; empty in
// deployments built without WithFederation.
func (s *System) ClusterOf(i int) string {
	if s.d.ClusterOf == nil {
		return ""
	}
	return s.d.ClusterOf[i]
}

// HandoffRef identifies one committed cross-cluster hand-off: the
// application, the substream index, and the remote cluster carrying it.
type HandoffRef = federation.HandoffRef

// Handoffs returns the cross-cluster hand-offs node i's federation
// coordinator currently holds committed. The second result is false when
// the deployment runs without WithFederation.
func (s *System) Handoffs(i int) ([]HandoffRef, bool) {
	if s.d.Federation == nil || s.d.Federation[i] == nil {
		return nil, false
	}
	return s.d.Federation[i].Handoffs(), true
}

// LinkUsage is one boundary link's credit/debit accounting: capacity,
// reserved bandwidth and live credits.
type LinkUsage = federation.LinkUsage

// BoundaryLinks returns cluster k's boundary-ledger accounting, one entry
// per boundary link touching it. The second result is false when the
// deployment runs without WithFederation.
func (s *System) BoundaryLinks(k int) ([]LinkUsage, bool) {
	if s.d.Ledgers == nil || k < 0 || k >= len(s.d.Ledgers) {
		return nil, false
	}
	return s.d.Ledgers[k].Usage(), true
}

// TraceBuffer records per-unit events (emit/arrive/process/forward/drop/
// deliver) for timeline reconstruction and per-hop latency analysis.
type TraceBuffer = trace.Buffer

// Decision is one completed adaptation decision: the causal chain from
// trigger event through controller gates and solver run to the
// reallocation outcome and convergence.
type Decision = trace.Decision

// DecisionJournal is the bounded ring retaining the most recent completed
// decisions.
type DecisionJournal = trace.Journal

// Decisions returns the deployment's adaptation decision log, oldest
// first: every engine writes its decision traces into one shared journal.
func (s *System) Decisions() []Decision { return s.d.Journal.Decisions() }

// Journal exposes the deployment's shared decision journal, e.g. to serve
// it over HTTP with live.DecisionsHandler or format it with
// trace.FormatDecisions.
func (s *System) Journal() *DecisionJournal { return s.d.Journal }

// TenantStatus is one tenant's admission posture: state (admitted or
// queued), priority class, demanded rate and current fair-share cap.
type TenantStatus = tenant.Status

// Tenants lists every application the admission gate tracks — admitted
// ones (sorted by ID) then the queue in promotion order. The second
// result is false when the deployment runs without WithTenancy.
func (s *System) Tenants() ([]TenantStatus, bool) {
	if s.d.Gate == nil {
		return nil, false
	}
	return s.d.Gate.Snapshot(), true
}

// TenantTotals is the admission gate's aggregate posture.
type TenantTotals = tenant.Totals

// TenantGateTotals returns the gate's aggregate posture (admitted and
// queued counts, budget, demand, preemptions, rejections). The second
// result is false without WithTenancy.
func (s *System) TenantGateTotals() (TenantTotals, bool) {
	if s.d.Gate == nil {
		return TenantTotals{}, false
	}
	return s.d.Gate.Totals(), true
}

// EnableTracing attaches a shared event buffer of the given capacity to
// every node's engine and returns it. Use the buffer's Timeline,
// StageLatencies and DropsByCause to analyze where units spend time and
// why they are lost.
func (s *System) EnableTracing(capacity int) *TraceBuffer {
	buf := trace.NewBuffer(capacity)
	for _, e := range s.d.Engines {
		e.SetTracer(buf)
	}
	return buf
}

// TelemetrySnapshot refreshes every engine's monitor gauges and renders
// the process-wide runtime telemetry registry in the Prometheus text
// format — the same catalogue a live node serves on /metrics, dumped once
// at the end of a simulation.
func (s *System) TelemetrySnapshot() string {
	for _, e := range s.d.Engines {
		e.ExportTelemetry()
	}
	return telemetry.Default().String()
}

// Report is a node's monitoring snapshot.
type Report = monitor.Report

// NodeReport returns node i's current monitoring snapshot (availability
// vector, drop ratio, per-component statistics).
func (s *System) NodeReport(i int) Report {
	return s.d.Engines[i].Monitor.Report(s.d.Sim.Now())
}
