package overlay

import "rasc.dev/rasc/internal/transport"

// msgTypeData is the transport message type of the data envelope, which
// carries every message sent straight to a node for one of its apps: the
// stream data plane's units and the DHT's replies and replicas.
//
//	data := header body
//
// header (wire.go) names the app and the sender.
const msgTypeData = "overlay-data"

// sendData frames body for app with this node as the sender. The payload
// is built with one exact-size allocation — the transport retains it until
// delivery, so the buffer cannot be pooled here.
func (n *Node) sendData(to transport.Addr, app string, body []byte, pad int, datagram bool) error {
	buf := make([]byte, 0, headerOverhead+len(app)+len(n.info.Addr)+len(n.info.Cluster)+len(body))
	buf, err := appendHeader(buf, app, n.info)
	if err != nil {
		return err
	}
	buf = append(buf, body...)
	return n.ep.Send(to, transport.Message{Type: msgTypeData, Payload: buf, Pad: pad, Datagram: datagram})
}

// Direct sends body straight to a specific node, bypassing key routing and
// delivered reliably. The app's DeliverFunc runs there with the receiver's
// own ID as the key. The error is a name no frame can carry
// (ErrDataNameTooLong) or a local send failure.
func (n *Node) Direct(to transport.Addr, app string, body []byte) error {
	return n.sendData(to, app, body, 0, false)
}

// DirectDataPadded is Direct with pad extra bytes charged on the wire and
// datagram (loss-tolerant) delivery — used for stream data units whose
// simulated size exceeds their encoded header. The returned error reports
// local send failures (notably a full uplink buffer), which the stream
// runtime counts as drops.
func (n *Node) DirectDataPadded(to transport.Addr, app string, body []byte, pad int) error {
	return n.sendData(to, app, body, pad, true)
}

// DirectPadded is DirectDataPadded under the name it had when direct
// messages rode the overlay envelope; the benchmark suite's frozen probes
// call it.
func (n *Node) DirectPadded(to transport.Addr, app string, body []byte, pad int) error {
	return n.DirectDataPadded(to, app, body, pad)
}

// onDataMessage delivers a data envelope to its app handler. Like every
// overlay message it teaches the node its sender, so data traffic keeps
// refreshing overlay state.
func (n *Node) onDataMessage(msg transport.Message) {
	app, src, body, ok := parseHeader(msg.Payload)
	if !ok {
		return // malformed: drop
	}
	n.learn(src)
	if h, ok := n.apps[app]; ok {
		h(n.info.ID, src, body)
	}
}

// onDataDropped hands a datagram dropped at this node's own downlink to the
// app's drop observer.
func (n *Node) onDataDropped(_ transport.Addr, msg transport.Message) {
	if msg.Type != msgTypeData {
		return
	}
	app, src, body, ok := parseHeader(msg.Payload)
	if !ok {
		return
	}
	if h, ok := n.dropObs[app]; ok {
		h(n.info.ID, src, body)
	}
}
