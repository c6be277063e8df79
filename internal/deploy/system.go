// Package deploy assembles complete simulated RASC deployments: a joined
// overlay cluster with DHT, discovery and a stream engine on every node,
// plus seeded service placement — the substrate for integration tests,
// examples and the experiment harness.
package deploy

import (
	"math/rand"
	"strconv"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/dht"
	"rasc.dev/rasc/internal/discovery"
	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/node"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/simnet"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/transport"
)

// FederationOptions shards a deployment into clusters joined by the
// federation boundary protocol: node i joins cluster i mod Clusters, the
// generated topology's sites align with the clusters (inter-cluster hops
// cross wide-area inter-site latency), full gossip stays intra-cluster,
// and each cluster's first BorderPeers nodes exchange compact summaries
// with their counterparts in every other cluster. Federated deployments
// imply EnableGossip.
type FederationOptions struct {
	// Clusters is the number of clusters (required, ≥ 1). One cluster is
	// the federated-but-alone configuration, pinned bit-identical to the
	// flat composer.
	Clusters int
	// BorderPeers is how many nodes per cluster run the summary exchange
	// (default 1).
	BorderPeers int
	// BoundaryBps is each inter-cluster boundary link's capacity
	// (default 100 Mbps).
	BoundaryBps float64
	// ClusterServices, when set, restricts cluster k's announcements to
	// ClusterServices[k mod len] — the lever experiments use to force
	// cross-cluster hand-offs (no single cluster offers every service).
	ClusterServices [][]string
}

func (f *FederationOptions) defaults() {
	if f.Clusters < 1 {
		f.Clusters = 1
	}
	if f.BorderPeers < 1 {
		f.BorderPeers = 1
	}
	if f.BoundaryBps <= 0 {
		f.BoundaryBps = 1e8
	}
}

// ClusterName names cluster k ("c0", "c1", …).
func ClusterName(k int) string { return "c" + strconv.Itoa(k) }

// GossipProbeTimeout is the simulator's gossip probe timeout: the 300ms
// default sits below the generated topology's worst inter-site RTT
// (~330ms); 500ms keeps healthy members from being falsely suspected.
const GossipProbeTimeout = 500 * time.Millisecond

// SystemOptions configures a full simulated RASC deployment.
type SystemOptions struct {
	// Nodes and Seed size and seed the deployment.
	Nodes int
	Seed  int64
	// Topology overrides the generated PlanetLab-like topology.
	Topology *netsim.Topology
	// Jitter is the per-message latency jitter (0 selects the default).
	Jitter time.Duration
	// LossRate is the random message loss probability.
	LossRate float64
	// MaxLinkBacklog bounds link buffers; congestion beyond it drops
	// data units (0 = unbounded).
	MaxLinkBacklog time.Duration
	// CongestionJitter adds backlog-proportional delivery jitter.
	CongestionJitter float64
	// Chaos, when set, wraps every node's endpoint with fault injection
	// (drop/delay/duplicate/reorder, plus on-demand partitions through
	// System.Chaos[i]). Each node derives its own deterministic seed from
	// the deployment seed; delays run on virtual time.
	Chaos *transport.ChaosConfig

	// Catalog defaults to services.Standard().
	Catalog services.Catalog
	// ServicesPerNode is how many services each node announces
	// (default 5, as in §4.1). Zero services means no placement here.
	ServicesPerNode int
	// ServiceNames restricts placement to a subset of the catalog
	// (default: all catalog services).
	ServiceNames []string
	// SchedPolicy, ProcJitter, QueueCapacity, StatsMaxAge and
	// KeepDelaySamples feed every engine's Config.
	SchedPolicy      string
	ProcJitter       float64
	QueueCapacity    int
	StatsMaxAge      time.Duration
	KeepDelaySamples bool
	// HeterogeneousCPU draws per-node speed factors in [0.6, 1.4).
	HeterogeneousCPU bool
	// BackgroundFlows adds this many constant-bit-rate cross-traffic
	// flows between random node pairs (PlanetLab's shared-slice load).
	// Each runs at BackgroundBps. Background traffic consumes link
	// capacity but is invisible to the nodes' own monitors, so measured
	// availability overestimates — drop feedback becomes the only
	// signal, as on the real testbed. Deployments with background flows
	// must advance time with RunUntil (the event queue never drains).
	BackgroundFlows int
	// BackgroundBps is the per-flow rate (default 50 Kbps).
	BackgroundBps float64

	// EnableGossip runs a gossip membership instance on every node: the
	// directory answers lookups from the converged view (DHT fallback),
	// composition reads gossip-fresh stats, and member-dead events prune
	// routing state and trigger immediate recomposition at the origins.
	// Gossip loops reschedule forever, so gossip-enabled deployments must
	// advance time with RunUntil.
	EnableGossip bool
	// Gossip tunes the protocol when EnableGossip is set; see
	// GossipProbeTimeout for the probe timeout the simulator needs.
	Gossip gossip.Config

	// Adaptation, when set, enables the event-driven adaptation control
	// plane on every engine (periodic delivery-rate checks plus
	// incremental reallocation on member-dead and breaker events).
	// Adaptation loops reschedule forever, so such deployments
	// must advance time with RunUntil.
	Adaptation *stream.AdaptationConfig

	// Tenancy, when set, fronts every engine's Submit path with one
	// shared admission gate: priority-weighted max-min fair-share caps,
	// an admission queue, and preemption under contention. A zero
	// CapacityBps defaults to 90% of the topology's aggregate access
	// capacity; Clock and Journal are filled in from the deployment.
	Tenancy *tenant.Config

	// DataPlane sizes every engine's data-unit path (units per wire
	// message, flush deadline, simulated CPUs). The zero value is one
	// unit per message on one CPU per host.
	DataPlane stream.DataPlaneConfig

	// Federation, when set, shards the deployment into clusters with
	// cluster-scoped composers and the inter-cluster boundary protocol.
	// Implies EnableGossip (summaries ride the gossip border exchange).
	Federation *FederationOptions
}

// System is a running simulated deployment: a joined overlay with DHT,
// discovery and a stream engine on every node, services announced.
type System struct {
	*simnet.Cluster
	Options SystemOptions
	Stores  []*dht.Store
	Dirs    []*discovery.Directory
	Engines []*stream.Engine
	// Gossip holds each node's membership instance (nil when EnableGossip
	// is off).
	Gossip []*gossip.Gossip
	// Chaos holds each node's fault injector (nil when Options.Chaos is
	// unset) — the handle for mid-run Partition/Heal.
	Chaos []*transport.Chaos
	// Placement records which services each node announced.
	Placement [][]string
	// Journal collects every engine's adaptation decision traces in one
	// deployment-wide ring (simulated nodes share the process, so one
	// journal sees the whole causal story).
	Journal *trace.Journal
	// Gate is the deployment-wide admission gate (nil when Options.Tenancy
	// is unset). Federated deployments run one gate per cluster instead:
	// Gate aliases cluster 0's and Gates holds them all.
	Gate *tenant.Gate
	// Gates holds the per-cluster admission gates of a federated tenancy
	// deployment, indexed by cluster number (nil otherwise).
	Gates []*tenant.Gate
	// Federation holds each node's coordinator (nil when
	// Options.Federation is unset).
	Federation []*federation.Coordinator
	// Ledgers holds each cluster's boundary-capacity arbiter, indexed by
	// cluster number (nil when Options.Federation is unset).
	Ledgers []*federation.Ledger
	// ClusterOf names each node's cluster ("" when unfederated).
	ClusterOf []string
}

// NewSystem builds and starts a deployment. After it returns, the overlay
// is joined, every node's services are registered in the DHT, and the
// simulator has quiesced.
func NewSystem(opts SystemOptions) *System {
	if opts.Catalog == nil {
		opts.Catalog = services.Standard()
	}
	if opts.ServicesPerNode == 0 {
		opts.ServicesPerNode = 5
	}
	names := opts.ServiceNames
	if names == nil {
		names = opts.Catalog.Names()
	}
	fo := opts.Federation
	if fo != nil {
		fo.defaults()
		// Summaries ride the gossip border exchange, and cluster-scoped
		// stats need cluster-scoped digests.
		opts.EnableGossip = true
		if opts.Topology == nil && fo.Clusters > 1 {
			// Align sites with clusters (both assign by i mod k), so an
			// inter-cluster hop crosses wide-area inter-site latency. A
			// single cluster keeps the default topology — the same one a
			// flat deployment generates, preserving the equivalence pin.
			opts.Topology = netsim.PlanetLabTopology(netsim.TopologyConfig{
				Nodes: opts.Nodes, Sites: fo.Clusters,
			}, opts.Seed)
		}
	}
	// Node i is in cluster i mod nClusters; a flat deployment is one.
	nClusters := 1
	if fo != nil {
		nClusters = fo.Clusters
	}
	simOpts := simnet.Options{
		N:                opts.Nodes,
		Seed:             opts.Seed,
		Topology:         opts.Topology,
		Jitter:           opts.Jitter,
		LossRate:         opts.LossRate,
		MaxLinkBacklog:   opts.MaxLinkBacklog,
		CongestionJitter: opts.CongestionJitter,
	}
	var chaosEPs []*transport.Chaos
	if opts.Chaos != nil {
		chaosEPs = make([]*transport.Chaos, opts.Nodes)
		simOpts.WrapEndpoint = func(i int, ep transport.Endpoint, clk clock.Clock) transport.Endpoint {
			cfg := *opts.Chaos
			if cfg.Seed == 0 {
				cfg.Seed = opts.Seed + 1 // stay deterministic under the simulator
			}
			cfg.Seed = cfg.Seed*1_000_003 + int64(i)
			ch := transport.NewChaos(ep, cfg, clk)
			chaosEPs[i] = ch
			return ch
		}
	}
	if fo != nil {
		// Cluster identity must be set before any join: it rides NodeInfo
		// through the overlay, and gossip scopes membership by it.
		simOpts.ConfigureNode = func(i int, n *overlay.Node) {
			n.SetCluster(ClusterName(i % nClusters))
		}
	}
	c := simnet.New(simOpts)
	s := &System{Cluster: c, Options: opts, Chaos: chaosEPs}
	// Every engine writes its decision traces into one shared journal,
	// sized for a deployment's worth of adaptations.
	s.Journal = trace.NewJournal(4 * trace.DefaultJournalCapacity)
	// One shared admission gate per cluster fronts the engines' Submit
	// paths (a flat deployment is one cluster). The default budget is half
	// the cluster's aggregate access capacity (each streamed unit crosses
	// an uplink and a downlink) with 10% headroom for control traffic.
	var nodeShare []float64
	clusterShare := make([]float64, nClusters)
	var gates []*tenant.Gate
	if opts.Tenancy != nil {
		nodeShare = make([]float64, opts.Nodes)
		for i := range c.Nodes {
			nodeShare[i] = min(c.Topology.DownBps[i], c.Topology.UpBps[i])
			clusterShare[i%nClusters] += nodeShare[i]
		}
		gates = make([]*tenant.Gate, nClusters)
		for k := range gates {
			gates[k] = node.NewGate(opts.Tenancy, 0.9*clusterShare[k]/2, c.Clock, s.Journal)
		}
		s.Gate = gates[0]
		if fo != nil {
			s.Gates = gates
		}
	}
	// A cluster's gate budget shrinks when one of its members dies: its
	// access-link contribution is gone, so fair shares must re-settle.
	// Every node's detector reports the same death; shrink once, and only
	// the dead node's own cluster — a remote-cluster death must not release
	// budget it never contributed locally.
	deadSeen := make([]bool, opts.Nodes)
	onDead := func(info overlay.NodeInfo) {
		for i, ov := range c.Nodes {
			if k := i % nClusters; ov.ID() == info.ID && gates != nil && !deadSeen[i] {
				deadSeen[i] = true
				if clusterShare[k] > 0 {
					gates[k].AddCapacity(-gates[k].CapacityBps() * nodeShare[i] / clusterShare[k])
					clusterShare[k] -= nodeShare[i]
					nodeShare[i] = 0
				}
			}
		}
	}
	// Federation: one boundary ledger per cluster (the arbiter all the
	// cluster's solves reserve against), every inter-cluster link granted
	// its capacity on both endpoint ledgers.
	if fo != nil {
		s.Ledgers = make([]*federation.Ledger, fo.Clusters)
		for k := range s.Ledgers {
			s.Ledgers[k] = federation.NewLedger()
		}
		for a := 0; a < fo.Clusters; a++ {
			for b := a + 1; b < fo.Clusters; b++ {
				s.Ledgers[a].SetLink(ClusterName(a), ClusterName(b), fo.BoundaryBps)
				s.Ledgers[b].SetLink(ClusterName(a), ClusterName(b), fo.BoundaryBps)
			}
		}
	}
	// Border pairing: the j-th border of cluster k exchanges summaries
	// with the j-th border of every other cluster (clusters smaller than
	// the border count fall back to their first node).
	borderPeers := func(i int) []overlay.NodeInfo {
		k, rank := i%nClusters, i/nClusters
		if rank >= fo.BorderPeers {
			return nil
		}
		var peers []overlay.NodeInfo
		for kk := 0; kk < fo.Clusters; kk++ {
			if kk == k {
				continue
			}
			idx := kk + rank*fo.Clusters
			if idx >= opts.Nodes {
				idx = kk
			}
			if idx < opts.Nodes {
				peers = append(peers, c.Nodes[idx].Info())
			}
		}
		return peers
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5eed))
	nodes := make([]*node.Node, opts.Nodes)
	for i, ov := range c.Nodes {
		speed := 1.0
		if opts.HeterogeneousCPU {
			speed = 0.6 + 0.8*rng.Float64()
		}
		ncfg := node.Config{
			Catalog: opts.Catalog,
			Engine: stream.Config{
				InBps:            c.Topology.DownBps[i],
				OutBps:           c.Topology.UpBps[i],
				SpeedFactor:      speed,
				SchedPolicy:      opts.SchedPolicy,
				ProcJitter:       opts.ProcJitter,
				QueueCapacity:    opts.QueueCapacity,
				StatsMaxAge:      opts.StatsMaxAge,
				KeepDelaySamples: opts.KeepDelaySamples,
				DataPlane:        opts.DataPlane,
			},
			Rand:    rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(i))),
			Journal: s.Journal,
		}
		k := i % nClusters
		if gates != nil {
			ncfg.Gate = gates[k]
		}
		if opts.EnableGossip {
			gcfg := opts.Gossip
			if fo != nil {
				gcfg.BoundaryBps = fo.BoundaryBps
				gcfg.BorderPeers = borderPeers(i)
				ncfg.Cluster = ClusterName(k)
				ncfg.Ledger = s.Ledgers[k]
				// Every node reads remote summaries from its cluster's first
				// border, node k: in-process here, a dissemination hop live.
				ncfg.Summaries = func() []gossip.ClusterSummary { return nodes[k].Gossip.Summaries() }
			}
			ncfg.Gossip = &gcfg
			ncfg.GossipRand = rand.New(rand.NewSource(opts.Seed*9_999_991 + int64(i)))
			ncfg.OnMemberDead = onDead
		}
		nodes[i] = node.Assemble(ov, c.Clock, ncfg)
		if fo != nil {
			// Summary TTL expiry is detected at the border; fan the
			// remote_candidate_lost signal out to the cluster's engines
			// (the in-process stand-in for an intra-cluster broadcast).
			nodes[i].Gossip.OnSummaryLost(func(cluster string) {
				for j := k; j < opts.Nodes; j += fo.Clusters {
					s.Engines[j].OnRemoteClusterLost(cluster)
				}
			})
			s.Federation = append(s.Federation, nodes[i].Federation)
		}
		s.ClusterOf = append(s.ClusterOf, ncfg.Cluster)
		s.Stores = append(s.Stores, nodes[i].Store)
		s.Dirs = append(s.Dirs, nodes[i].Dir)
		s.Engines = append(s.Engines, nodes[i].Engine)
		if opts.EnableGossip {
			s.Gossip = append(s.Gossip, nodes[i].Gossip)
		}
	}
	// Announce services: each node offers ServicesPerNode services drawn
	// without replacement, seeded, so the replication degree matches
	// §4.1 in expectation.
	s.Placement = make([][]string, len(c.Nodes))
	for i, d := range s.Dirs {
		cnames := names
		if fo != nil && len(fo.ClusterServices) > 0 {
			cnames = fo.ClusterServices[i%nClusters%len(fo.ClusterServices)]
		}
		perNode := opts.ServicesPerNode
		if perNode > len(cnames) {
			perNode = len(cnames)
		}
		idx := rng.Perm(len(cnames))[:perNode]
		for _, k := range idx {
			if err := d.Announce(cnames[k]); err != nil {
				// Like simnet's N <= 0: options no deployment can be built from.
				panic("deploy: announce " + cnames[k] + ": " + err.Error())
			}
			s.Placement[i] = append(s.Placement[i], cnames[k])
		}
	}
	c.Sim.Run()
	// Start gossip and adaptation once the set-up traffic has quiesced
	// (their loops would keep Run from returning). Membership is seeded
	// with the converged overlay's roster; digests still disseminate.
	roster := make([]overlay.NodeInfo, len(c.Nodes))
	for i, ov := range c.Nodes {
		roster[i] = ov.Info()
	}
	node.Start(roster, opts.Adaptation, nodes...)
	// Start background cross-traffic only after the control plane has
	// quiesced (the flows reschedule forever).
	if opts.BackgroundFlows > 0 {
		bps := opts.BackgroundBps
		if bps <= 0 {
			bps = 5e4
		}
		for i := 0; i < opts.BackgroundFlows; i++ {
			from := netsim.NodeID(rng.Intn(opts.Nodes))
			to := netsim.NodeID(rng.Intn(opts.Nodes))
			if from == to {
				to = netsim.NodeID((int(to) + 1) % opts.Nodes)
			}
			c.Net.AddBackgroundFlow(from, to, bps, 1250)
		}
	}
	return s
}

// Kill fails node i: its transport endpoint closes, so it neither receives
// nor sends anything from now on (fail-stop). Peers observe timeouts; with
// gossip enabled they detect the death through probing. The dead node's
// own protocol loops are stopped so the event queue stays lean, and a
// stopped detector reports no verdicts.
func (s *System) Kill(i int) {
	_ = s.Endpoints[i].Close()
	if s.Gossip != nil && s.Gossip[i] != nil {
		s.Gossip[i].Stop()
	}
}
