package overlay

import (
	"errors"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/transport"
)

// DefaultLeafSetSize matches Pastry's |L| = 16 (8 per side).
const DefaultLeafSetSize = 16

// DeliverFunc receives a routed message at the node responsible for key.
type DeliverFunc func(key ID, src NodeInfo, body []byte)

// RequestHandler serves a direct request; it must call respond exactly once
// (errStr empty on success).
type RequestHandler func(from NodeInfo, body []byte, respond func(body []byte, errStr string))

// ErrTimeout is passed to request callbacks whose peer did not answer in
// time.
var ErrTimeout = errors.New("overlay: request timed out")

type pendingReq struct {
	cb     func(body []byte, err error)
	cancel func()
}

type pendingAck struct {
	env    envelope
	hop    ID
	cancel func()
}

// Node is a Pastry overlay node. Node is not internally synchronized: all
// methods and all transport callbacks must run on a single goroutine (the
// simulator event loop, or a live runtime's actor loop).
type Node struct {
	info    NodeInfo
	ep      transport.Endpoint
	clk     clock.Clock
	rt      routingTable
	leaf    *leafSet
	apps    map[string]DeliverFunc
	rpcs    map[string]RequestHandler
	dropObs map[string]DeliverFunc
	pending map[uint64]*pendingReq
	nextReq uint64

	// Hop-by-hop route acknowledgement state: every forwarded routed
	// message awaits a quick ack from the chosen hop; a silent hop is
	// pruned and the message re-routed.
	pendingAcks map[uint64]*pendingAck
	nextAck     uint64
	// RouteAckTimeout bounds how long a forwarded message waits for the
	// next hop's acknowledgement before the hop is declared dead.
	RouteAckTimeout time.Duration

	joined bool
	onJoin []func()

	// MaxHops caps route forwarding as a loop safety net.
	MaxHops int
	// ProximityAware enables Pastry's proximity neighbor selection:
	// when two peers compete for the same routing-table slot, both are
	// RTT-probed and the closer one wins, biasing each hop toward
	// nearby nodes without affecting where keys are delivered.
	ProximityAware bool
	rtts           map[ID]time.Duration
	probing        map[ID]bool
	// Stats counters.
	RoutedSent, RoutedDelivered, Forwarded int64
}

// NewNode creates a node with the given identifier bound to ep. The node
// installs itself as ep's handler.
func NewNode(id ID, ep transport.Endpoint, clk clock.Clock) *Node {
	n := &Node{
		info:            NodeInfo{ID: id, Addr: ep.Addr()},
		ep:              ep,
		clk:             clk,
		rt:              routingTable{owner: id},
		leaf:            newLeafSet(id, DefaultLeafSetSize),
		apps:            make(map[string]DeliverFunc),
		rpcs:            make(map[string]RequestHandler),
		pending:         make(map[uint64]*pendingReq),
		pendingAcks:     make(map[uint64]*pendingAck),
		rtts:            make(map[ID]time.Duration),
		probing:         make(map[ID]bool),
		MaxHops:         64,
		RouteAckTimeout: 3 * time.Second,
	}
	ep.SetHandler(n.onMessage)
	n.rpcs[pingApp] = func(_ NodeInfo, _ []byte, respond func([]byte, string)) {
		respond(nil, "")
	}
	return n
}

// pingApp is the built-in liveness probe used by HealRoute.
const pingApp = "$ping"

// HealRoute probes the node's current next hop toward key; if the hop does
// not answer within timeout it is removed from the routing state and the
// new next hop is probed, until a live hop answers or this node has become
// the key's root. done (may be nil) fires when healing has finished. Use
// after a routed request (e.g. a DHT lookup) times out: failed nodes on
// the local segment of the route are pruned so a retry can succeed.
func (n *Node) HealRoute(key ID, timeout time.Duration, done func()) {
	hop, ok := n.nextHop(key)
	if !ok {
		if done != nil {
			done()
		}
		return
	}
	n.Request(hop.Addr, pingApp, nil, timeout, func(_ []byte, err error) {
		if err == nil {
			if done != nil {
				done()
			}
			return
		}
		n.RemovePeer(hop.ID)
		n.HealRoute(key, timeout, done)
	})
}

// Info returns the node's own identity.
func (n *Node) Info() NodeInfo { return n.info }

// SetCluster stamps the node's federation cluster onto its identity. Call
// it before Bootstrap/Join so every peer that learns the node also learns
// its cluster; changing it on a joined node is a configuration error.
func (n *Node) SetCluster(cluster string) { n.info.Cluster = cluster }

// ID returns the node's overlay identifier.
func (n *Node) ID() ID { return n.info.ID }

// Addr returns the node's transport address.
func (n *Node) Addr() transport.Addr { return n.info.Addr }

// Joined reports whether the node is part of an overlay (Bootstrap or a
// completed Join).
func (n *Node) Joined() bool { return n.joined }

// NumKnown returns the number of distinct peers in the node's state tables
// (diagnostic).
func (n *Node) NumKnown() int {
	seen := make(map[ID]bool)
	for _, e := range n.rt.all() {
		seen[e.ID] = true
	}
	for _, e := range n.leaf.all() {
		seen[e.ID] = true
	}
	return len(seen)
}

// Leafset returns a copy of the node's current leaf set members.
func (n *Node) Leafset() []NodeInfo { return n.leaf.all() }

// Register installs the deliver handler for a named application. Routed
// messages addressed to the application are delivered at the key's root.
func (n *Node) Register(app string, h DeliverFunc) { n.apps[app] = h }

// RegisterRequest installs a direct request handler for a named application.
func (n *Node) RegisterRequest(app string, h RequestHandler) { n.rpcs[app] = h }

// Bootstrap marks this node as the first member of a new overlay.
func (n *Node) Bootstrap() {
	n.joined = true
	n.fireJoin()
}

// Join starts the Pastry join protocol through a node at bootstrap. The
// onDone callback (optional) fires when the join reply has been processed
// and the node has announced itself.
func (n *Node) Join(bootstrap transport.Addr, onDone func()) {
	if onDone != nil {
		n.onJoin = append(n.onJoin, onDone)
	}
	n.send(envelope{Kind: kindJoin, Key: n.info.ID, Joiner: n.info}, bootstrap)
}

func (n *Node) fireJoin() {
	cbs := n.onJoin
	n.onJoin = nil
	for _, cb := range cbs {
		cb()
	}
}

// Route sends body toward the node whose ID is closest to key; the app's
// DeliverFunc runs there. A name no frame can carry is refused with
// ErrDataNameTooLong wherever the key's root is.
func (n *Node) Route(key ID, app string, body []byte) error {
	if len(app) > 255 || !n.info.fits() {
		return ErrDataNameTooLong // checked here: a key this node roots is never framed
	}
	n.RoutedSent++
	n.routeEnvelope(envelope{Kind: kindRoute, Key: key, App: app, Src: n.info, Body: body})
	return nil
}

// RegisterDropObserver installs a callback for datagrams addressed to the
// given app that were dropped at this node's own downlink (the transport's
// receive-buffer overflow signal).
func (n *Node) RegisterDropObserver(app string, h DeliverFunc) {
	if n.dropObs == nil {
		n.dropObs = make(map[string]DeliverFunc)
		n.ep.SetDropHandler(n.onDataDropped)
	}
	n.dropObs[app] = h
}

// Stabilize exchanges leaf sets with every current leaf-set member,
// repairing gaps left by joins that raced each other.
func (n *Node) Stabilize() {
	leaf := n.leaf.all()
	n.send(envelope{Kind: kindLeafXchg, Nodes: leaf}, addrs(leaf)...)
}

// AddPeer seeds the node's state with a known peer (used by tests and by
// the live runtime's static configuration).
func (n *Node) AddPeer(info NodeInfo) { n.learn(info) }

// RemovePeer drops a failed peer from all state tables.
func (n *Node) RemovePeer(id ID) {
	n.rt.remove(id)
	n.leaf.remove(id)
}

// learn incorporates a peer reference into the routing table and leaf set.
func (n *Node) learn(info NodeInfo) {
	if info.ID == n.info.ID || info.Addr == "" {
		return
	}
	if !n.rt.add(info) && n.ProximityAware {
		// Slot contested: keep the closer of the incumbent and the
		// candidate once both RTTs are known.
		row, col := n.rt.slotFor(info.ID)
		if cur := n.rt.lookup(row, col); cur != nil && cur.ID != info.ID {
			n.contest(*cur, info)
		}
	}
	n.leaf.add(info)
}

// contest probes both peers competing for a slot and installs the closer
// one. Probes are deduplicated; dead candidates get an infinite RTT (and
// an incumbent that is found dead is pruned entirely).
func (n *Node) contest(incumbent, candidate NodeInfo) {
	n.probeRTT(incumbent, func() { n.settleSlot(incumbent, candidate) })
	n.probeRTT(candidate, func() { n.settleSlot(incumbent, candidate) })
}

// settleSlot applies the proximity decision once both RTTs are cached.
func (n *Node) settleSlot(incumbent, candidate NodeInfo) {
	ri, okI := n.rtts[incumbent.ID]
	rc, okC := n.rtts[candidate.ID]
	if !okI || !okC {
		return // the other probe has not finished yet
	}
	if rc < ri {
		n.rt.replace(candidate)
	}
}

// probeRTT measures the round-trip time to a peer (once) and then runs
// done. A timeout records an effectively infinite RTT.
func (n *Node) probeRTT(peer NodeInfo, done func()) {
	if _, ok := n.rtts[peer.ID]; ok {
		done()
		return
	}
	if n.probing[peer.ID] {
		return // an in-flight probe will settle contested slots later
	}
	n.probing[peer.ID] = true
	start := n.clk.Now()
	n.Request(peer.Addr, pingApp, nil, 3*time.Second, func(_ []byte, err error) {
		delete(n.probing, peer.ID)
		if err != nil {
			n.rtts[peer.ID] = time.Hour // unreachable
		} else {
			n.rtts[peer.ID] = n.clk.Now() - start
		}
		done()
	})
}

// RTTOf returns the cached RTT measurement for a peer (ok=false when the
// peer was never probed).
func (n *Node) RTTOf(id ID) (time.Duration, bool) {
	d, ok := n.rtts[id]
	return d, ok
}

// send frames env once, with this node as the sender, and transmits it to
// every address in to. Sending is best-effort: a frame that cannot be built
// (only SetCluster or AddPeer can introduce a name too long for it) is
// dropped like one sent to a dead peer, and timeouts handle both.
func (n *Node) send(env envelope, to ...transport.Addr) {
	env.Src = n.info
	frame, err := appendEnvelope(nil, env)
	if err != nil {
		return
	}
	for _, addr := range to {
		n.transmit(addr, frame)
	}
}

func (n *Node) transmit(to transport.Addr, frame []byte) {
	// Send errors are best-effort; a dead peer is handled by timeouts.
	_ = n.ep.Send(to, transport.Message{Type: msgType, Payload: frame})
}

// addrs lists the transport addresses of peers.
func addrs(peers []NodeInfo) []transport.Addr {
	out := make([]transport.Addr, len(peers))
	for i, p := range peers {
		out[i] = p.Addr
	}
	return out
}

// nextHop picks the Pastry next hop for key, or ok=false when this node is
// the key's root.
func (n *Node) nextHop(key ID) (NodeInfo, bool) {
	if key == n.info.ID {
		return NodeInfo{}, false
	}
	if n.leaf.covers(key) {
		best, ok := n.leaf.closest(key)
		if !ok {
			return NodeInfo{}, false // self is closest
		}
		return best, true
	}
	row := n.info.ID.CommonPrefixLen(key)
	if e := n.rt.lookup(row, key.Digit(row)); e != nil {
		return *e, true
	}
	// Rare case: any known node strictly closer to key with at least as
	// long a shared prefix.
	var best *NodeInfo
	consider := func(e NodeInfo) {
		if e.ID.CommonPrefixLen(key) < row {
			return
		}
		if !Closer(key, e.ID, n.info.ID) {
			return
		}
		if best == nil || Closer(key, e.ID, best.ID) {
			cp := e
			best = &cp
		}
	}
	for _, e := range n.rt.all() {
		consider(e)
	}
	for _, e := range n.leaf.all() {
		consider(e)
	}
	if best != nil {
		return *best, true
	}
	return NodeInfo{}, false
}

func (n *Node) routeEnvelope(env envelope) {
	if env.Hops >= n.MaxHops {
		return // drop: routing loop safety net
	}
	hop, ok := n.nextHop(env.Key)
	if !ok {
		n.deliverLocal(env)
		return
	}
	env.Hops++
	// Ask the hop to acknowledge receipt; a silent hop is pruned and the
	// message re-routed around it.
	n.nextAck++
	ackID := n.nextAck
	env.Ack = ackID
	// A routed message keeps its origin as Src from hop to hop.
	frame, err := appendEnvelope(nil, env)
	if err != nil {
		return // unframeable: dropped here rather than retried at every ack timeout
	}
	n.Forwarded++
	p := &pendingAck{env: env, hop: hop.ID}
	p.cancel = n.clk.After(n.RouteAckTimeout, func() {
		pa, ok := n.pendingAcks[ackID]
		if !ok {
			return
		}
		delete(n.pendingAcks, ackID)
		n.RemovePeer(pa.hop)
		retry := pa.env
		retry.Ack = 0
		n.routeEnvelope(retry)
	})
	n.pendingAcks[ackID] = p
	n.transmit(hop.Addr, frame)
}

func (n *Node) deliverLocal(env envelope) {
	switch env.Kind {
	case kindRoute:
		n.RoutedDelivered++
		if h, ok := n.apps[env.App]; ok {
			h(env.Key, env.Src, env.Body)
		}
	case kindJoin:
		// This node is the joiner's root Z: reply with accumulated rows
		// plus Z's own leaf set and identity.
		nodes := append(env.Nodes, n.leaf.all()...)
		nodes = append(nodes, n.info)
		n.learn(env.Joiner)
		n.send(envelope{Kind: kindJoinReply, Nodes: nodes}, env.Joiner.Addr)
	}
}

func (n *Node) onMessage(from transport.Addr, msg transport.Message) {
	switch msg.Type {
	case msgTypeData:
		n.onDataMessage(msg)
		return
	case msgTypeRPC:
		n.onRPCMessage(msg)
		return
	}
	if msg.Type != msgType {
		return
	}
	env, ok := parseEnvelope(msg.Payload)
	if !ok {
		return // malformed: drop
	}
	n.learn(env.Src)
	// Acknowledge routed messages hop-by-hop before processing.
	if env.Ack != 0 && (env.Kind == kindRoute || env.Kind == kindJoin) {
		n.send(envelope{Kind: kindRouteAck, Ack: env.Ack}, from)
		env.Ack = 0
	}
	switch env.Kind {
	case kindRouteAck:
		if p, ok := n.pendingAcks[env.Ack]; ok {
			delete(n.pendingAcks, env.Ack)
			p.cancel()
		}
	case kindRoute:
		n.routeEnvelope(env)
	case kindJoin:
		// Contribute the routing-table row the joiner needs, then
		// forward toward the joiner's ID.
		row := n.info.ID.CommonPrefixLen(env.Joiner.ID)
		if row < NumDigits {
			env.Nodes = append(env.Nodes, n.rt.row(row)...)
		}
		env.Nodes = append(env.Nodes, n.info)
		n.learn(env.Joiner)
		n.routeEnvelope(env)
	case kindJoinReply:
		for _, info := range env.Nodes {
			n.learn(info)
		}
		n.joined = true
		// Announce ourselves to everyone we now know about.
		n.send(envelope{Kind: kindAnnounce}, addrs(n.allKnown())...)
		n.fireJoin()
	case kindAnnounce:
		n.send(envelope{Kind: kindAnnounceAck, Nodes: n.leaf.all()}, env.Src.Addr)
	case kindAnnounceAck:
		for _, info := range env.Nodes {
			n.learn(info)
		}
	case kindLeafXchg:
		for _, info := range env.Nodes {
			n.learn(info)
		}
	}
}

func (n *Node) allKnown() []NodeInfo {
	seen := make(map[ID]bool)
	var out []NodeInfo
	for _, e := range append(n.rt.all(), n.leaf.all()...) {
		if !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	return out
}
