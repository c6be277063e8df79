// Package live runs a RASC node over real TCP sockets and the wall clock.
// The protocol stack is single-threaded by design; here every inbound
// frame and timer callback is serialized onto one actor goroutine, so the
// exact same code that runs in the simulator runs against real networks.
// That is literal: internal/node assembles the stack for both, and live
// adds only the endpoint, the clock, a per-node gate, DHT record refresh
// and leaf-set stabilisation (DESIGN.md §3.2).
package live

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/node"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/transport"
)

// Config parameterizes a live node.
type Config struct {
	// Listen is the TCP listen address ("host:port", port 0 = any).
	Listen string
	// Name seeds the node's overlay ID (hashed); defaults to the bound
	// address.
	Name string
	// Bootstrap, when non-empty, is an existing node's address to join
	// through; empty starts a new overlay.
	Bootstrap string
	// Services to announce after joining.
	Services []string
	// Catalog defaults to services.Standard().
	Catalog services.Catalog
	// InBps/OutBps declare the node's access capacity for the
	// availability vector (defaults 10 Mbps).
	InBps, OutBps float64
	// JoinTimeout bounds the join handshake (default 10s).
	JoinTimeout time.Duration
	// UDPData sends stream data units over UDP (loss-tolerant) while
	// control stays on TCP, mirroring the simulated transport's
	// datagram semantics.
	UDPData bool
	// RefreshInterval is how often service registrations are re-published
	// to the DHT so they migrate to new key roots as the ring changes
	// (default 2s).
	RefreshInterval time.Duration
	// RecordTTL is how long a DHT registration survives without a refresh
	// — a crashed node's services disappear from discovery within this
	// bound (default 10s; must exceed RefreshInterval).
	RecordTTL time.Duration
	// DisableGossip turns the membership protocol off: lookups go to the
	// DHT and composition fetches stats per host, as before.
	DisableGossip bool
	// Cluster names the federation cluster this node belongs to. Empty
	// runs the node flat (no federation); set, it scopes gossip to the
	// cluster, runs a federation coordinator, and serves
	// /debug/rasc/clusters. Requires gossip.
	Cluster string
	// BorderPeers lists remote clusters' border node addresses this node
	// exchanges cluster summaries with. Only border nodes set it; other
	// cluster members learn remote clusters through their border.
	BorderPeers []string
	// BoundaryBps is the boundary-link capacity this node's ledger grants
	// toward each remote cluster it learns of (default 100 Mbps). The
	// effective grant is the minimum of both sides' advertisements.
	BoundaryBps float64
	// Gossip tunes the membership protocol (zero value = defaults: 1s
	// probe period, 300ms probe timeout, 3s suspicion timeout).
	Gossip gossip.Config
	// Resilience tunes the async send pipeline wrapped around the protocol
	// endpoint: per-peer bounded queues, batch coalescing, retry with
	// backoff, and circuit breakers (zero value = defaults).
	Resilience transport.ResilientConfig
	// Chaos, when it injects any fault, wraps the wire below the resilient
	// pipeline with seedable drop/delay/duplicate/reorder faults — failure
	// drills on a live cluster, exercising the same retry and breaker
	// machinery the tests exercise.
	Chaos transport.ChaosConfig
	// Clock is the node's time source (default: the wall clock). Tests
	// inject scaled or offset clocks so timeout behavior — join, submit,
	// adaptation — runs on virtual time like the simulator's.
	Clock clock.Clock
	// Adaptation, when set, enables the event-driven adaptation control
	// plane on the engine after the node joins: periodic delivery-rate
	// checks plus incremental reallocation on member-dead and breaker-open
	// events.
	Adaptation *stream.AdaptationConfig
	// Tenancy, when set, fronts this node's submission path with an
	// admission gate (priority classes, fair-share caps, admission
	// queue) budgeting one aggregate. A zero CapacityBps defaults to
	// min(InBps, OutBps), this node's own access capacity; Clock and
	// Journal are filled in from the node. Served by /debug/rasc/tenants.
	Tenancy *tenant.Config
	// DataPlane sizes the engine's data-unit path (units per wire
	// message, flush deadline, simulated CPUs). The zero value is one
	// unit per message on one CPU. Served by /debug/rasc/dataplane.
	DataPlane stream.DataPlaneConfig
	// TraceEvents, when positive, attaches a per-unit event buffer of
	// that capacity to the engine, served by /debug/rasc/trace.
	TraceEvents int
	// DecisionJournal is the decision journal's retention (default
	// trace.DefaultJournalCapacity). The journal is always on — it only
	// records when the adaptation plane makes decisions — and is served
	// by /debug/rasc/decisions.
	DecisionJournal int
}

// Node is a running live RASC node on the stack internal/node assembles.
// /debug/rasc/decisions serves its Journal, /debug/rasc/tenants its Gate
// (nil without Config.Tenancy), /debug/rasc/clusters its Federation.
type Node struct {
	*node.Node
	loop chan func()
	done chan struct{}
	ep   transport.Endpoint
	// Transport is the resilient send pipeline every frame goes through;
	// its breaker states feed /healthz and gossip suspicion.
	Transport *transport.Resilient
	// Trace is the per-unit event buffer (nil unless Config.TraceEvents
	// enabled it), served by /debug/rasc/trace.
	Trace *trace.Buffer

	// clk is the node's base clock (wall time unless injected), used for
	// the off-loop waits (join, submit).
	clk clock.Clock

	closeOnce sync.Once
}

// loopEndpoint serializes inbound frames onto the actor loop.
type loopEndpoint struct {
	inner transport.Endpoint
	post  func(func())
}

func (l *loopEndpoint) Addr() transport.Addr { return l.inner.Addr() }
func (l *loopEndpoint) Send(to transport.Addr, msg transport.Message) error {
	return l.inner.Send(to, msg)
}
func (l *loopEndpoint) SetHandler(h transport.Handler) {
	l.inner.SetHandler(func(from transport.Addr, msg transport.Message) {
		l.post(func() { h(from, msg) })
	})
}
func (l *loopEndpoint) SetDropHandler(h transport.Handler) {
	l.inner.SetDropHandler(func(from transport.Addr, msg transport.Message) {
		l.post(func() { h(from, msg) })
	})
}
func (l *loopEndpoint) Close() error { return l.inner.Close() }

// loopClock posts timer callbacks onto the actor loop. It wraps any base
// clock — the wall clock in production, a scaled or offset clock in tests
// — so the protocol stack's notion of time is injectable end to end.
type loopClock struct {
	base clock.Clock
	post func(func())
}

func (c loopClock) Now() time.Duration { return c.base.Now() }
func (c loopClock) After(d time.Duration, fn func()) clock.Timer {
	return c.base.After(d, func() { c.post(fn) })
}
func (c loopClock) Resolution() time.Duration { return c.base.Resolution() }

// Check fills cfg's zero fields with their defaults and returns the error
// Start refuses cfg with before it binds anything: a RecordTTL that does
// not exceed RefreshInterval, or a Cluster without gossip.
func (cfg *Config) Check() error {
	if cfg.Catalog == nil {
		cfg.Catalog = services.Standard()
	}
	cfg.InBps, cfg.OutBps = cmp.Or(cfg.InBps, 10e6), cmp.Or(cfg.OutBps, 10e6)
	cfg.JoinTimeout = cmp.Or(cfg.JoinTimeout, 10*time.Second)
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = 2 * time.Second
	}
	if cfg.RecordTTL <= 0 {
		cfg.RecordTTL = 10 * time.Second
	}
	if cfg.BoundaryBps <= 0 {
		cfg.BoundaryBps = 1e8
	}
	if cfg.DecisionJournal <= 0 {
		cfg.DecisionJournal = trace.DefaultJournalCapacity
	}
	if cfg.RecordTTL <= cfg.RefreshInterval {
		return fmt.Errorf("live: RecordTTL %v must exceed RefreshInterval %v", cfg.RecordTTL, cfg.RefreshInterval)
	}
	if cfg.Cluster != "" && cfg.DisableGossip {
		return fmt.Errorf("live: federation (Cluster %q) requires gossip", cfg.Cluster)
	}
	return nil
}

// Start boots a live node: binds the listener, builds the protocol stack,
// joins (or bootstraps) the overlay and announces services. It blocks
// until the node is a member of the overlay.
func Start(cfg Config) (*Node, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	var ep transport.Endpoint
	var err error
	if cfg.UDPData {
		ep, err = transport.NewHybrid(cfg.Listen)
	} else {
		ep, err = transport.NewTCP(cfg.Listen)
	}
	if err != nil {
		return nil, err
	}
	n := &Node{
		loop: make(chan func(), 1024),
		done: make(chan struct{}),
	}
	go n.run()
	// Wire order, outermost first: Resilient → Chaos → socket. Chaos sits
	// below the pipeline so injected faults exercise the same retry and
	// breaker machinery real network trouble would.
	if cfg.Chaos.Active() {
		ep = transport.NewChaos(ep, cfg.Chaos, nil)
	}
	rcfg := cfg.Resilience
	userCB := rcfg.OnBreakerChange
	rcfg.OnBreakerChange = func(peer transport.Addr, state transport.BreakerState) {
		if userCB != nil {
			userCB(peer, state)
		}
		if state != transport.BreakerOpen {
			return
		}
		// First-hand delivery failure: hand the peer to the membership
		// layer ahead of its own probe timeouts, and publish the
		// breaker verdict to the adaptation control plane so affected
		// streams shift away before the gossip verdict lands.
		n.post(func() {
			if n.Gossip == nil {
				return
			}
			n.Gossip.SuspectAddr(peer)
			if info, ok := n.Gossip.InfoByAddr(peer); ok {
				n.Engine.OnBreakerOpen(info.ID)
			}
		})
	}
	n.Transport = transport.NewResilient(ep, rcfg)
	ep = n.Transport
	n.ep = ep
	post := n.post
	lep := &loopEndpoint{inner: ep, post: post}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	n.clk = cfg.Clock
	clk := loopClock{base: cfg.Clock, post: post}
	name := cfg.Name
	if name == "" {
		name = string(ep.Addr())
	}
	joined := make(chan struct{})
	n.DoSync(func() {
		ov := overlay.NewNode(overlay.HashID(name), lep, clk)
		// Cluster identity rides NodeInfo; set it before the join spreads
		// this node's info through the overlay.
		ov.SetCluster(cfg.Cluster)
		journal := trace.NewJournal(cfg.DecisionJournal)
		ncfg := node.Config{
			Catalog: cfg.Catalog,
			Engine:  stream.Config{InBps: cfg.InBps, OutBps: cfg.OutBps, DataPlane: cfg.DataPlane},
			Rand:    newLiveRand(name),
			Journal: journal,
			Gate:    node.NewGate(cfg.Tenancy, min(cfg.InBps, cfg.OutBps), clk, journal),
		}
		if !cfg.DisableGossip {
			gcfg := cfg.Gossip
			if cfg.Cluster != "" {
				gcfg.BoundaryBps = cfg.BoundaryBps
				for _, addr := range cfg.BorderPeers {
					// The peer's ID is unknown until the first exchange; the
					// border protocol addresses peers by transport address.
					gcfg.BorderPeers = append(gcfg.BorderPeers, overlay.NodeInfo{Addr: transport.Addr(addr)})
				}
				// Each live node arbiters its own boundary ledger; a hand-off's
				// remote side reserves at the border serving it, so both
				// endpoints account the debit.
				ncfg.Cluster, ncfg.Ledger = cfg.Cluster, federation.NewLedger()
				ncfg.Summaries = func() []gossip.ClusterSummary { return n.Gossip.Summaries() }
			}
			ncfg.Gossip, ncfg.GossipRand = &gcfg, newLiveRand(name+"/gossip")
		}
		n.Node = node.Assemble(ov, clk, ncfg)
		// Registrations age out unless StartRefresh (below) re-publishes
		// them, so a crashed node's services leave discovery within the TTL.
		n.Store.TTL = cfg.RecordTTL
		if cfg.TraceEvents > 0 {
			n.Trace = trace.NewBuffer(cfg.TraceEvents)
			n.Engine.SetTracer(n.Trace)
		}
		if n.Federation != nil {
			// Links are granted as remote clusters introduce themselves
			// through summaries, at the minimum of both advertisements.
			n.Gossip.OnSummary(func(s gossip.ClusterSummary) {
				capBps := cfg.BoundaryBps
				if s.BoundaryBps > 0 {
					capBps = min(capBps, s.BoundaryBps)
				}
				n.Federation.Ledger().SetLink(cfg.Cluster, s.Cluster, capBps)
			})
			n.Gossip.OnSummaryLost(n.Engine.OnRemoteClusterLost)
		}
		if cfg.Bootstrap == "" {
			n.Overlay.Bootstrap()
			close(joined)
			return
		}
		n.Overlay.Join(transport.Addr(cfg.Bootstrap), func() { close(joined) })
	})
	// The join wait runs on the node's clock, not the wall clock, so tests
	// on scaled virtual time bound the handshake consistently with every
	// other timer in the stack.
	joinTimeout := make(chan struct{})
	joinTimer := cfg.Clock.After(cfg.JoinTimeout, func() { close(joinTimeout) })
	select {
	case <-joined:
		joinTimer.Stop()
	case <-joinTimeout:
		n.Close()
		return nil, fmt.Errorf("live: join through %s timed out", cfg.Bootstrap)
	}
	var announceErr error
	n.DoSync(func() {
		for _, svc := range cfg.Services {
			if err := n.Dir.Announce(svc); err != nil {
				announceErr = fmt.Errorf("live: announce %q: %w", svc, err)
				return
			}
		}
		// Keep registrations converged as the ring grows.
		n.Dir.StartRefresh(cfg.RefreshInterval)
		// Periodically exchange leaf sets so concurrent joins converge.
		var stabilize func()
		stabilize = func() {
			n.Overlay.Stabilize()
			clk.After(2*time.Second, stabilize)
		}
		clk.After(time.Second, stabilize)
		// Membership bootstraps from the post-join leaf set; anti-entropy
		// pulls the rest of the roster.
		node.Start(n.Overlay.Leafset(), cfg.Adaptation, n.Node)
	})
	if announceErr != nil {
		n.Close()
		return nil, announceErr
	}
	return n, nil
}

// run is the actor loop.
func (n *Node) run() {
	for {
		select {
		case fn := <-n.loop:
			fn()
		case <-n.done:
			return
		}
	}
}

// post enqueues fn on the actor loop, dropping it if the node is closed.
func (n *Node) post(fn func()) {
	select {
	case n.loop <- fn:
	case <-n.done:
	}
}

// Do runs fn on the actor loop asynchronously. All access to the node's
// protocol objects (Overlay, Store, Dir, Engine) must go through Do or
// DoSync.
func (n *Node) Do(fn func()) { n.post(fn) }

// DoSync runs fn on the actor loop and waits for it to finish.
func (n *Node) DoSync(fn func()) {
	ch := make(chan struct{})
	n.post(func() {
		fn()
		close(ch)
	})
	select {
	case <-ch:
	case <-n.done:
	}
}

// Addr returns the node's transport address.
func (n *Node) Addr() string { return string(n.ep.Addr()) }

// Submit composes and starts a request from this node, blocking until
// composition completes or timeout passes. It is SubmitContext with
// context.Background().
func (n *Node) Submit(req spec.Request, composerName string, timeout time.Duration) (*core.ExecutionGraph, error) {
	return n.SubmitContext(context.Background(), req, composerName, timeout)
}

// SubmitContext composes and starts a request from this node, blocking
// until composition completes, timeout passes, or ctx is done. A
// cancelled context abandons the wait and returns ctx.Err(); the compose
// RPCs already in flight finish (and are discarded) on the actor loop.
func (n *Node) SubmitContext(ctx context.Context, req spec.Request, composerName string, timeout time.Duration) (*core.ExecutionGraph, error) {
	type result struct {
		graph *core.ExecutionGraph
		err   error
	}
	ch := make(chan result, 1)
	telComposeAttempts.Inc()
	n.Do(func() {
		composer, err := core.ByName(composerName)
		if err != nil {
			telComposeFailures.Inc()
			ch <- result{err: err}
			return
		}
		n.Engine.Submit(req, composer, timeout, func(g *core.ExecutionGraph, err error) {
			if err != nil {
				telComposeFailures.Inc()
			}
			telActiveRequests.Set(float64(n.Engine.ActiveRequests()))
			ch <- result{graph: g, err: err}
		})
	})
	// Bound the wait on the node's clock (injectable), not the wall
	// clock, so scaled-time tests see submit deadlines consistent with
	// the RPC timeouts the engine itself runs on.
	expired := make(chan struct{})
	timer := n.clk.After(timeout+time.Second, func() { close(expired) })
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.graph, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-expired:
		return nil, fmt.Errorf("live: submit timed out")
	}
}

// Stats reads a composed request's delivery statistics from this node's
// sinks.
func (n *Node) Stats(req string, substream int) (s stream.SinkSnapshot) {
	n.DoSync(func() {
		if sink := n.Engine.Sink(req, substream); sink != nil {
			s = stream.Snapshot(sink)
		}
		s.Emitted = n.Engine.Throughput(req, substream).EmittedUnits
	})
	return s
}

// newLiveRand seeds a node-local random source from the node name and the
// wall clock (live nodes need not be reproducible).
func newLiveRand(name string) *rand.Rand {
	h := overlay.HashID(name)
	seed := int64(h[0])<<56 | int64(h[1])<<48 | int64(h[2])<<40 | int64(h[3])<<32 | time.Now().UnixNano()&0xffffffff
	return rand.New(rand.NewSource(seed))
}

// Close shuts the node down.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.ep.Close()
	})
}
