package netsim

import (
	"fmt"
	"time"
)

// NodeID identifies a node inside a Network.
type NodeID int

// Handler receives a message delivered to a node.
type Handler func(from NodeID, size int, payload interface{})

// link models one direction of a node's access link: a FIFO serializer with
// finite capacity in bits per second.
type link struct {
	capacityBps float64
	busyUntil   time.Duration
	bytesSent   int64
}

// serialize reserves the link starting no earlier than now for a message of
// size bytes and returns the time at which the last bit leaves the link.
func (l *link) serialize(now time.Duration, size int) time.Duration {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	tx := time.Duration(float64(size*8) / l.capacityBps * float64(time.Second))
	l.busyUntil = start + tx
	l.bytesSent += int64(size)
	return l.busyUntil
}

// netNode is a network attachment point with an uplink and a downlink.
type netNode struct {
	id          NodeID
	up          link
	down        link
	handler     Handler
	dropHandler Handler
}

// Network connects nodes through access links and a wide-area latency
// matrix. It is driven by a Simulator and is not safe for concurrent use.
type Network struct {
	sim        *Simulator
	nodes      []*netNode
	latency    func(a, b NodeID) time.Duration
	jitter     time.Duration
	lossRate   float64
	maxBacklog time.Duration
	congJitter float64
	partitions map[[2]NodeID]bool
	// spare holds delivered and dropped flights for reuse.
	spare []*flight

	// Delivered and Lost count messages for diagnostics.
	Delivered int64
	Lost      int64
}

// Config parameterizes a Network.
type Config struct {
	// Latency returns the one-way propagation delay between two nodes.
	// If nil, a uniform 20ms is used.
	Latency func(a, b NodeID) time.Duration
	// Jitter is the maximum random extra delay added per message.
	Jitter time.Duration
	// LossRate is the probability in [0,1) that a message is dropped
	// in transit.
	LossRate float64
	// MaxLinkBacklog bounds the FIFO backlog of every access link
	// (modelling finite socket buffers): a message finding more than
	// this much serialization backlog on its uplink or downlink is
	// dropped. Zero means unbounded.
	MaxLinkBacklog time.Duration
	// CongestionJitter adds random extra delay proportional to the
	// sender's current uplink backlog (cross-traffic variance grows
	// with congestion): each message samples up to backlog×factor of
	// additional jitter. Zero disables it.
	CongestionJitter float64
}

// NewNetwork creates an empty network on top of sim.
func NewNetwork(sim *Simulator, cfg Config) *Network {
	lat := cfg.Latency
	if lat == nil {
		lat = func(a, b NodeID) time.Duration { return 20 * time.Millisecond }
	}
	return &Network{
		sim: sim, latency: lat, jitter: cfg.Jitter, lossRate: cfg.LossRate,
		maxBacklog: cfg.MaxLinkBacklog, congJitter: cfg.CongestionJitter,
	}
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *Simulator { return n.sim }

// AddNode attaches a node with the given uplink/downlink capacities in bits
// per second and returns its ID. Capacities must be positive.
func (n *Network) AddNode(upBps, downBps float64) NodeID {
	if upBps <= 0 || downBps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive link capacity (%g up, %g down)", upBps, downBps))
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &netNode{
		id:   id,
		up:   link{capacityBps: upBps},
		down: link{capacityBps: downBps},
	})
	return id
}

// SetHandler installs the message handler for node id, replacing any
// previous handler.
func (n *Network) SetHandler(id NodeID, h Handler) { n.nodes[id].handler = h }

// SetDropHandler installs a handler invoked when a droppable message is
// discarded at node id's downlink for exceeding the backlog bound — the
// simulation equivalent of a kernel receive-buffer overflow counter, which
// the node's monitor can observe.
func (n *Network) SetDropHandler(id NodeID, h Handler) { n.nodes[id].dropHandler = h }

// NumNodes returns the number of attached nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// UpCapacity returns the uplink capacity of node id in bits per second.
func (n *Network) UpCapacity(id NodeID) float64 { return n.nodes[id].up.capacityBps }

// DownCapacity returns the downlink capacity of node id in bits per second.
func (n *Network) DownCapacity(id NodeID) float64 { return n.nodes[id].down.capacityBps }

// BytesSent returns the number of bytes node id has pushed into its uplink.
func (n *Network) BytesSent(id NodeID) int64 { return n.nodes[id].up.bytesSent }

// BytesReceived returns the number of bytes serialized onto node id's
// downlink.
func (n *Network) BytesReceived(id NodeID) int64 { return n.nodes[id].down.bytesSent }

// Latency returns the configured base one-way latency between a and b.
func (n *Network) Latency(a, b NodeID) time.Duration { return n.latency(a, b) }

// Send transmits a reliable (TCP-like) message of size bytes: it is never
// dropped for backlog, only delayed by link queueing. Delivery time
// accounts for sender uplink serialization, propagation latency plus
// jitter, and receiver downlink serialization. A local send (from == to)
// is delivered on the next event with no link usage.
func (n *Network) Send(from, to NodeID, size int, payload interface{}) bool {
	return n.send(from, to, size, payload, false)
}

// SendDroppable transmits a datagram (UDP-like) message: it is dropped
// when the sender's uplink backlog exceeds the configured bound (reported
// by the false return), subject to random loss in transit, and dropped at
// the receiver's downlink when that backlog exceeds the bound (reported to
// the receiver's drop handler).
func (n *Network) SendDroppable(from, to NodeID, size int, payload interface{}) bool {
	return n.send(from, to, size, payload, true)
}

// flight is one message on its way, carried by two typed events: arrival
// at the receiver's downlink, then (arrived set) delivery once the downlink
// has serialized it. A local send is scheduled straight into delivery.
// Flights are pooled per network: one is taken per message and returned
// when the message is delivered or dropped at the downlink.
type flight struct {
	net       *Network
	from, to  NodeID
	size      int
	payload   interface{}
	droppable bool
	arrived   bool
}

func (n *Network) send(from, to NodeID, size int, payload interface{}, droppable bool) bool {
	if int(from) >= len(n.nodes) || int(to) >= len(n.nodes) || from < 0 || to < 0 {
		panic(fmt.Sprintf("netsim: send between unknown nodes %d -> %d", from, to))
	}
	if from == to {
		n.launch(n.sim.now, from, to, size, payload, droppable, true)
		return true
	}
	if n.partitioned(from, to) {
		n.Lost++
		return true // silently black-holed: the sender cannot tell
	}
	now := n.sim.Now()
	src := n.nodes[from]
	if droppable && n.maxBacklog > 0 && src.up.busyUntil-now > n.maxBacklog {
		n.Lost++
		return false
	}
	if droppable && n.lossRate > 0 && n.sim.rng.Float64() < n.lossRate {
		n.Lost++
		return true // accepted by the uplink, lost in transit
	}
	backlog := src.up.busyUntil - now
	if backlog < 0 {
		backlog = 0
	}
	sent := src.up.serialize(now, size)
	prop := n.latency(from, to)
	if n.jitter > 0 {
		prop += time.Duration(n.sim.rng.Int63n(int64(n.jitter)))
	}
	if n.congJitter > 0 && backlog > 0 {
		if bound := int64(float64(backlog) * n.congJitter); bound > 0 {
			prop += time.Duration(n.sim.rng.Int63n(bound))
		}
	}
	n.launch(sent+prop, from, to, size, payload, droppable, false)
	return true
}

// launch queues a pooled flight's first event at t.
func (n *Network) launch(t time.Duration, from, to NodeID, size int, payload interface{}, droppable, arrived bool) {
	var fl *flight
	if k := len(n.spare); k > 0 {
		fl = n.spare[k-1]
		n.spare = n.spare[:k-1]
	} else {
		fl = &flight{net: n}
	}
	fl.from, fl.to, fl.size, fl.payload, fl.droppable, fl.arrived = from, to, size, payload, droppable, arrived
	n.sim.at(t, event{fl: fl})
}

// step runs a flight's event: at arrival the receiver's downlink drops the
// message or serializes it and schedules its delivery; at delivery the
// receiver's handler gets it. The flight goes back to the pool before any
// handler runs, so a handler that sends reuses it.
func (n *Network) step(fl *flight) {
	from, to, size, payload := fl.from, fl.to, fl.size, fl.payload
	dst := n.nodes[to]
	if !fl.arrived {
		if fl.droppable && n.maxBacklog > 0 && dst.down.busyUntil-n.sim.now > n.maxBacklog {
			n.Lost++
			n.release(fl)
			_, bg := payload.(backgroundMarker)
			if dst.dropHandler != nil && !bg {
				dst.dropHandler(from, size, payload)
			}
			return
		}
		fl.arrived = true
		n.sim.at(dst.down.serialize(n.sim.now, size), event{fl: fl})
		return
	}
	n.release(fl)
	n.Delivered++
	if _, bg := payload.(backgroundMarker); bg {
		return // cross-traffic filler: consumes links, carries nothing
	}
	if dst.handler != nil {
		dst.handler(from, size, payload)
	}
}

// release returns a flight to the pool without the payload it carried.
func (n *Network) release(fl *flight) {
	fl.payload = nil
	n.spare = append(n.spare, fl)
}

// SetPartition blocks (or restores) all traffic between a and b in both
// directions. Partitioned messages vanish silently — neither endpoint is
// told — modelling a wide-area routing failure between two sites.
func (n *Network) SetPartition(a, b NodeID, blocked bool) {
	if n.partitions == nil {
		n.partitions = make(map[[2]NodeID]bool)
	}
	key := pairKey(a, b)
	if blocked {
		n.partitions[key] = true
	} else {
		delete(n.partitions, key)
	}
}

func pairKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// partitioned reports whether traffic between a and b is blocked.
func (n *Network) partitioned(a, b NodeID) bool {
	if n.partitions == nil {
		return false
	}
	return n.partitions[pairKey(a, b)]
}

// backgroundMarker tags cross-traffic payloads; deliver discards them.
type backgroundMarker struct{}

// AddBackgroundFlow emits a constant-bit-rate stream of droppable filler
// packets from one node to another, consuming link capacity exactly like
// application traffic — the shared-testbed load of PlanetLab. The flow
// starts on the next event and runs until the simulation ends.
func (n *Network) AddBackgroundFlow(from, to NodeID, bps float64, packetBytes int) {
	if packetBytes <= 0 {
		packetBytes = 1250
	}
	if bps <= 0 {
		return
	}
	interval := time.Duration(float64(packetBytes*8) / bps * float64(time.Second))
	if interval <= 0 {
		interval = time.Millisecond
	}
	var tick func()
	tick = func() {
		n.SendDroppable(from, to, packetBytes, backgroundMarker{})
		n.sim.Schedule(interval, tick)
	}
	// Desynchronize flows so they do not beat in lockstep.
	n.sim.Schedule(time.Duration(n.sim.rng.Int63n(int64(interval))+1), tick)
}
