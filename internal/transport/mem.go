package transport

import (
	"fmt"
	"strconv"

	"rasc.dev/rasc/internal/netsim"
)

// MemNetwork binds transport endpoints to simulator network nodes. All
// message sends become simulated transmissions that consume link bandwidth
// and experience latency, jitter and loss according to the netsim
// configuration.
type MemNetwork struct {
	nw *netsim.Network
	// byNode holds the endpoint bound to each simulator node (nil when
	// none is), indexed by node ID: an address resolves by parsing it.
	byNode []*memEndpoint
	// spare holds envelopes whose message was delivered or dropped at a
	// downlink, for reuse.
	spare []*memEnvelope
}

// NewMemNetwork wraps a simulated network.
func NewMemNetwork(nw *netsim.Network) *MemNetwork {
	return &MemNetwork{nw: nw}
}

// memScheme prefixes every mem address.
const memScheme = "sim://"

// MemAddr returns the canonical address for simulator node id.
func MemAddr(id netsim.NodeID) Addr { return Addr(memScheme + strconv.Itoa(int(id))) }

// Endpoint binds an endpoint to the simulator node id. Binding the same
// node twice replaces the previous endpoint.
func (m *MemNetwork) Endpoint(id netsim.NodeID) Endpoint {
	ep := &memEndpoint{net: m, node: id, addr: MemAddr(id)}
	for int(id) >= len(m.byNode) {
		m.byNode = append(m.byNode, nil)
	}
	m.byNode[id] = ep
	m.nw.SetHandler(id, ep.deliver)
	m.nw.SetDropHandler(id, ep.dropped)
	return ep
}

// lookup resolves a canonical mem address to the endpoint bound to it, or
// nil.
func (m *MemNetwork) lookup(to Addr) *memEndpoint {
	s := string(to)
	if len(s) <= len(memScheme) || s[:len(memScheme)] != memScheme {
		return nil
	}
	id := 0
	for i := len(memScheme); i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' || id > len(m.byNode) {
			return nil
		}
		id = id*10 + int(c-'0')
	}
	if id >= len(m.byNode) {
		return nil
	}
	if ep := m.byNode[id]; ep != nil && ep.addr == to {
		return ep // the comparison turns away non-canonical spellings
	}
	return nil
}

// memEnvelope is a message in flight on the simulator, passed by pointer
// so it rides the network's payload without boxing. Envelopes are pooled
// per MemNetwork: one is taken per send and returned when the message is
// delivered, dropped at a downlink or refused by the uplink. A message the
// network loses in transit or black-holes leaves its envelope to the
// garbage collector.
type memEnvelope struct {
	from Addr
	msg  Message
}

func (m *MemNetwork) envelope(from Addr, msg Message) *memEnvelope {
	var env *memEnvelope
	if n := len(m.spare); n > 0 {
		env = m.spare[n-1]
		m.spare = m.spare[:n-1]
	} else {
		env = new(memEnvelope)
	}
	env.from, env.msg = from, msg
	return env
}

// release returns an envelope to the pool and hands back what it carried.
func (m *MemNetwork) release(env *memEnvelope) (Addr, Message) {
	from, msg := env.from, env.msg
	*env = memEnvelope{}
	m.spare = append(m.spare, env)
	return from, msg
}

type memEndpoint struct {
	net         *MemNetwork
	node        netsim.NodeID
	addr        Addr
	handler     Handler
	dropHandler Handler
	closed      bool
}

func (e *memEndpoint) Addr() Addr               { return e.addr }
func (e *memEndpoint) SetHandler(h Handler)     { e.handler = h }
func (e *memEndpoint) SetDropHandler(h Handler) { e.dropHandler = h }

// deliver is the network's handler for the endpoint's node.
func (e *memEndpoint) deliver(_ netsim.NodeID, size int, payload interface{}) {
	env, ok := payload.(*memEnvelope)
	if !ok {
		return
	}
	from, msg := e.net.release(env)
	if e.closed || e.handler == nil {
		return
	}
	telMemIn.Inc()
	telMemInBytes.Add(uint64(size))
	e.handler(from, msg)
}

// dropped is the network's downlink-drop handler for the endpoint's node.
func (e *memEndpoint) dropped(_ netsim.NodeID, _ int, payload interface{}) {
	env, ok := payload.(*memEnvelope)
	if !ok {
		return
	}
	from, msg := e.net.release(env)
	if e.closed || e.dropHandler == nil {
		return
	}
	e.dropHandler(from, msg)
}

func (e *memEndpoint) Send(to Addr, msg Message) error {
	if e.closed {
		return ErrClosed
	}
	dst := e.net.lookup(to)
	if dst == nil {
		telMemSendFails.Inc()
		return fmt.Errorf("%w: %s", ErrUnknownAddr, to)
	}
	size := msg.WireSize()
	env := e.net.envelope(e.addr, msg)
	if msg.Datagram {
		if !e.net.nw.SendDroppable(e.node, dst.node, size, env) {
			e.net.release(env)
			return ErrBacklog
		}
	} else {
		e.net.nw.Send(e.node, dst.node, size, env)
	}
	telMemOut.Inc()
	telMemOutBytes.Add(uint64(size))
	return nil
}

// Close unbinds the endpoint's address, unless a later Endpoint call for
// the same node has already rebound it to a replacement.
func (e *memEndpoint) Close() error {
	e.closed = true
	if e.net.byNode[e.node] == e {
		e.net.byNode[e.node] = nil
	}
	return nil
}
