// Package node assembles one RASC node's protocol stack on an overlay
// node: DHT, directory, stream engine, gossip and federation coordinator.
// The simulator (internal/deploy) and the live runtime (internal/live)
// both build every node here; DESIGN.md §3.2 lists what still differs.
package node

import (
	"math/rand"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/dht"
	"rasc.dev/rasc/internal/discovery"
	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
)

// Config is what one assembled node is built from.
type Config struct {
	// Catalog, Engine and Rand build the stream engine.
	Catalog services.Catalog
	Engine  stream.Config
	Rand    *rand.Rand
	// Journal receives the engine's decision traces.
	Journal *trace.Journal
	// Gate, when set, fronts the engine's Submit path.
	Gate *tenant.Gate
	// Gossip, when set, runs the membership protocol, its probe choices
	// drawn from GossipRand. A dead member is pruned from the overlay and
	// the engine, then OnMemberDead (when set) runs.
	Gossip       *gossip.Config
	GossipRand   *rand.Rand
	OnMemberDead func(overlay.NodeInfo)
	// Cluster, when set, scopes gossip to this federation cluster and runs
	// a coordinator over Ledger that reads remote clusters' summaries from
	// Summaries. Requires Gossip.
	Cluster   string
	Ledger    *federation.Ledger
	Summaries func() []gossip.ClusterSummary
}

// Node is one assembled node's protocol stack, with the Journal and Gate
// (nil without Config.Gate) it was assembled with.
type Node struct {
	Overlay *overlay.Node
	Store   *dht.Store
	Dir     *discovery.Directory
	Engine  *stream.Engine
	Journal *trace.Journal
	Gate    *tenant.Gate
	// Gossip is the membership instance (nil without Config.Gossip).
	Gossip *gossip.Gossip
	// Federation is the coordinator (nil without Config.Cluster).
	Federation *federation.Coordinator
}

// Assemble builds the stack on ov. It sends nothing and schedules no
// timer, so the simulator's event order does not depend on when it runs;
// the node's loops begin at Start.
func Assemble(ov *overlay.Node, clk clock.Clock, cfg Config) *Node {
	n := &Node{Overlay: ov, Store: dht.New(ov, clk), Journal: cfg.Journal, Gate: cfg.Gate}
	n.Dir = discovery.New(ov, n.Store, clk)
	eng := stream.NewEngine(ov, clk, n.Dir, cfg.Catalog, cfg.Rand, cfg.Engine)
	n.Engine = eng
	eng.SetDecisionJournal(cfg.Journal)
	if cfg.Gate != nil {
		eng.SetTenantGate(cfg.Gate)
	}
	if cfg.Gossip == nil {
		return n
	}
	gcfg := *cfg.Gossip
	if cfg.Cluster != "" {
		gcfg.Cluster = cfg.Cluster
	}
	g := gossip.New(ov, clk, cfg.GossipRand, gcfg)
	n.Gossip = g
	g.SetDigestFunc(func() gossip.Digest {
		return gossip.Digest{Report: eng.Monitor.Report(clk.Now()), Services: n.Dir.LocalServices()}
	})
	g.OnMemberDead(func(info overlay.NodeInfo) {
		ov.RemovePeer(info.ID)
		eng.OnPeerDead(info.ID)
		if cfg.OnMemberDead != nil {
			cfg.OnMemberDead(info)
		}
	})
	n.Dir.SetView(g)
	eng.SetStatsProvider(g.ReportFor)
	if cfg.Cluster != "" {
		n.Federation = federation.New(federation.Config{
			Cluster:      cfg.Cluster,
			Node:         ov,
			Ledger:       cfg.Ledger,
			Summaries:    cfg.Summaries,
			LocalSummary: g.LocalSummary,
		})
		eng.SetFederation(n.Federation)
	}
	return n
}

// NewGate builds the admission gate t asks for (nil when t is nil); a
// zero CapacityBps takes capacityBps, a nil Clock and Journal the node's.
func NewGate(t *tenant.Config, capacityBps float64, clk clock.Clock, j *trace.Journal) *tenant.Gate {
	if t == nil {
		return nil
	}
	cfg := *t
	if cfg.CapacityBps <= 0 {
		cfg.CapacityBps = capacityBps
	}
	if cfg.Clock == nil {
		cfg.Clock = clk
	}
	if cfg.Journal == nil {
		cfg.Journal = j
	}
	return tenant.NewGate(cfg)
}

// Start seeds every node's gossip with roster and starts it, in node
// order, then enables adaptation (when set) on each. Both loops reschedule
// forever, so the simulator starts its nodes once set-up has quiesced.
func Start(roster []overlay.NodeInfo, adaptation *stream.AdaptationConfig, nodes ...*Node) {
	for _, n := range nodes {
		if n.Gossip != nil {
			n.Gossip.Seed(roster)
			n.Gossip.Start()
		}
	}
	for _, n := range nodes {
		if adaptation != nil {
			n.Engine.EnableAdaptation(*adaptation)
		}
	}
}
