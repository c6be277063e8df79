package rasc

import (
	"fmt"

	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/transport"
)

// ChaosConfig parameterizes transport fault injection — probabilistic
// drops, delays, duplicates and reordering, all driven from a seeded
// source so runs stay reproducible. Enable it with WithChaos; partitions
// are cut and healed at runtime through System.Partition and System.Heal.
type ChaosConfig = transport.ChaosConfig

// Option customizes a simulated deployment built by New.
type Option func(*Options)

// WithNodes sets the deployment size (default 32, the paper's testbed).
func WithNodes(n int) Option { return func(o *Options) { o.Nodes = n } }

// WithSeed seeds the deployment; every run on the same seed is identical.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithCatalog selects the service catalog (default StandardCatalog()).
func WithCatalog(c Catalog) Option { return func(o *Options) { o.Catalog = c } }

// WithServicesPerNode sets how many catalog services each node offers
// (default 5, matching the paper's setup).
func WithServicesPerNode(n int) Option { return func(o *Options) { o.ServicesPerNode = n } }

// WithLinkCapacity bounds per-node access-link capacity in bits/sec
// (default 150 Kbps – 1.2 Mbps, the calibrated experiment range).
func WithLinkCapacity(minBps, maxBps float64) Option {
	return func(o *Options) { o.MinBps, o.MaxBps = minBps, maxBps }
}

// WithSchedPolicy selects the per-node data-unit scheduler: "llf"
// (least-laxity-first, the default), "edf" or "fifo".
func WithSchedPolicy(policy string) Option { return func(o *Options) { o.SchedPolicy = policy } }

// WithGossip toggles the SWIM-style membership protocol on every node:
// service lookups answered from the converged view, composition reading
// gossip-disseminated monitoring digests, and detected node deaths
// triggering immediate recomposition at the origins.
func WithGossip(enabled bool) Option { return func(o *Options) { o.EnableGossip = enabled } }

// AdaptationConfig tunes the event-driven adaptation control plane: the
// periodic delivery-rate check interval and threshold, the composers used
// for incremental and full re-composition, the drop-spike trigger, and
// the controller's hysteresis/cooldown/backoff/concurrency knobs (the
// Control field). The zero value selects the defaults documented on each
// field.
type AdaptationConfig = stream.AdaptationConfig

// WithAdaptation enables the adaptation control plane on every node of
// the deployment. Origins then react to delivered-rate drops, gossip
// member-dead events, transport breaker trips and disseminated drop-ratio
// spikes by incrementally reallocating rate away from degraded hosts
// (falling back to a full recompose when the delta solve is infeasible).
// Pair it with WithGossip to arm the failure-detection triggers.
//
// Adaptation loops reschedule forever, so virtual time must be advanced
// with System.Run for a bounded duration (the event queue never drains).
func WithAdaptation(cfg AdaptationConfig) Option {
	return func(o *Options) { o.Adaptation = &cfg }
}

// TenancyConfig tunes the multi-tenant admission gate: the capacity
// budget (0 derives it from the topology), the tenant and queue limits,
// the guaranteed-share floor, the per-priority fairness weights, and the
// scale knobs — FairShareDeadband suppresses cap notifications for
// sub-threshold relative moves, CapCoalesceWindow collapses fan-out
// bursts into one sweep, PerHostLedger accounts capacity per node (a
// death releases exactly that node's budget, and admission additionally
// probes for a host with placement headroom), and DisableIncremental
// pins the O(n log n) full-recompute allocator instead of the
// incremental one. The zero value selects the defaults documented on
// each field.
type TenancyConfig = tenant.Config

// WithTenancy fronts every node's submission path with one shared
// admission gate. Submissions then pass admission control: a request the
// cluster cannot carry without pushing an equal-or-higher-priority tenant
// below its guaranteed share is queued (and submitted automatically when
// capacity frees) or rejected with ErrAdmissionRejected — instead of
// silently degrading the applications already running. Admitted tenants
// get priority-weighted max-min fair-share rate caps, recomputed on every
// membership or demand change; under contention the lowest-priority
// tenants are rate-capped first and preempted back into the queue last.
// Set Request.Priority to choose an application's class.
func WithTenancy(cfg TenancyConfig) Option {
	return func(o *Options) { o.Tenancy = &cfg }
}

// DataPlaneConfig sizes the per-node data-unit path: BatchUnits is the
// maximum number of units coalesced per destination into one binary wire
// message, FlushInterval bounds how long a unit waits in an open batch,
// and Shards is the number of simulated CPUs per node. The zero value
// (equal to BatchUnits 1, Shards 1) sends one unit per message and keeps
// one CPU per host, the same as a deployment built without the option;
// the wire encoding is the same at every setting.
type DataPlaneConfig = stream.DataPlaneConfig

// DefaultDataPlane returns the batching configuration the benchmark
// suite's sim-stream-batched workload runs (32-unit batches, 2ms flush
// deadline, 4 shards).
func DefaultDataPlane() DataPlaneConfig { return stream.DefaultDataPlane() }

// WithDataPlane sizes the data plane on every node: sources and
// forwarders coalesce up to cfg.BatchUnits units per destination into one
// binary wire message (flushed no later than cfg.FlushInterval after the
// first unit), and each node schedules units across cfg.Shards simulated
// CPUs keyed by (request, substream) so per-substream ordering is
// preserved. Read the aggregate effect with Composition.Throughput.
func WithDataPlane(cfg DataPlaneConfig) Option {
	return func(o *Options) { o.DataPlane = &cfg }
}

// FederationConfig shards the deployment into federated clusters:
// Clusters is the cluster count (1 = federated but alone, pinned
// bit-identical to the flat composer), BorderPeers how many nodes per
// cluster exchange boundary summaries, BoundaryBps each inter-cluster
// boundary link's capacity, and ClusterServices optionally restricts
// cluster k's service announcements to ClusterServices[k mod len] — the
// lever that forces cross-cluster hand-offs.
type FederationConfig = deploy.FederationOptions

// WithFederation shards the deployment into federated clusters, each
// running its own composer over gossip-fresh local state. Full monitoring
// digests stay intra-cluster; border nodes exchange compact cluster
// summaries (aggregate headroom, boundary capacity, exported services).
// When a cluster cannot place a request locally, its coordinator
// discovers candidate clusters from the summaries, hands substreams off
// across the boundary, and stitches the per-cluster execution graphs —
// reserving boundary-link capacity on both sides' ledgers and falling
// back to the local-only answer when no remote replies. Implies
// WithGossip; set Request.Cluster to pin a request to one cluster's
// composer regardless of the submitting node.
func WithFederation(cfg FederationConfig) Option {
	return func(o *Options) { o.Federation = &cfg }
}

// WithChaos wraps every node's transport endpoint with seeded fault
// injection. Each node derives its own deterministic seed from the
// deployment seed, and injected delays run on virtual time, so chaotic
// deployments remain exactly reproducible. Partitions are managed at
// runtime with System.Partition, System.Heal and System.HealAll.
func WithChaos(cfg ChaosConfig) Option { return func(o *Options) { o.Chaos = &cfg } }

// New builds a deterministic simulated RASC deployment: N overlay nodes
// joined through Pastry over a PlanetLab-like wide-area network model,
// services registered in the DHT, a stream engine on every node. Options
// override the paper's defaults:
//
//	sys := rasc.New(rasc.WithNodes(16), rasc.WithSeed(7), rasc.WithGossip(true))
func New(opts ...Option) *System {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return newSystem(o)
}

// chaosAt returns node i's fault injector, panicking with a clear message
// when the deployment was built without WithChaos (a programming error,
// like submitting from a nonexistent origin).
func (s *System) chaosAt(i int) *transport.Chaos {
	if s.d.Chaos == nil {
		panic("rasc: fault injection requires WithChaos")
	}
	if i < 0 || i >= len(s.d.Chaos) {
		panic(fmt.Sprintf("rasc: node %d outside deployment of %d nodes", i, len(s.d.Chaos)))
	}
	return s.d.Chaos[i]
}

// Partition cuts nodes i and j off from each other in both directions.
// Control and data traffic between them fails immediately (as a broken
// link would); traffic to every other node is untouched. Requires
// WithChaos.
func (s *System) Partition(i, j int) {
	s.chaosAt(i).Partition(s.d.Nodes[j].Addr())
	s.chaosAt(j).Partition(s.d.Nodes[i].Addr())
}

// Heal reconnects nodes i and j after a Partition. Requires WithChaos.
func (s *System) Heal(i, j int) {
	s.chaosAt(i).Heal(s.d.Nodes[j].Addr())
	s.chaosAt(j).Heal(s.d.Nodes[i].Addr())
}

// HealAll removes every partition in the deployment. Requires WithChaos.
func (s *System) HealAll() {
	if s.d.Chaos == nil {
		panic("rasc: fault injection requires WithChaos")
	}
	for _, c := range s.d.Chaos {
		c.HealAll()
	}
}
