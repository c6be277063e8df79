package overlay

import (
	"errors"

	"rasc.dev/rasc/internal/transport"
)

// msgTypeData is the transport message type of the binary data envelope.
// The JSON envelope (msgType) carries every control message; the data
// envelope carries the stream data plane's units, where per-message JSON
// marshal cost would dominate. Its layout is:
//
//	appLen:u8 app srcAddrLen:u8 srcAddr srcID[IDBytes] body
const msgTypeData = "overlay-data"

// dataEnvelopeOverhead is the encoded envelope size minus app, source
// address and body.
const dataEnvelopeOverhead = 2 + IDBytes

// ErrDataNameTooLong reports an app name or node address that does not fit
// the data envelope's u8 length prefix.
var ErrDataNameTooLong = errors.New("overlay: app or address name longer than 255 bytes")

// DirectDataPadded is DirectPadded on the binary data envelope: datagram
// (loss-tolerant) delivery, pad extra bytes charged on the wire, and the
// returned error reporting local send failures. The payload is built with
// one exact-size allocation — the transport retains it until delivery, so
// the buffer cannot be pooled here.
func (n *Node) DirectDataPadded(to transport.Addr, app string, body []byte, pad int) error {
	if len(app) > 255 || len(n.info.Addr) > 255 {
		return ErrDataNameTooLong
	}
	buf := make([]byte, 0, dataEnvelopeOverhead+len(app)+len(n.info.Addr)+len(body))
	buf = append(buf, byte(len(app)))
	buf = append(buf, app...)
	buf = append(buf, byte(len(n.info.Addr)))
	buf = append(buf, n.info.Addr...)
	buf = append(buf, n.info.ID[:]...)
	buf = append(buf, body...)
	return n.ep.Send(to, transport.Message{Type: msgTypeData, Payload: buf, Pad: pad, Datagram: true})
}

// parseDataEnvelope decodes a binary data envelope.
func parseDataEnvelope(b []byte) (app string, src NodeInfo, body []byte, ok bool) {
	if len(b) < 1 {
		return "", NodeInfo{}, nil, false
	}
	al := int(b[0])
	b = b[1:]
	if len(b) < al+1 {
		return "", NodeInfo{}, nil, false
	}
	app = string(b[:al])
	sl := int(b[al])
	b = b[al+1:]
	if len(b) < sl+IDBytes {
		return "", NodeInfo{}, nil, false
	}
	src.Addr = transport.Addr(b[:sl])
	copy(src.ID[:], b[sl:])
	return app, src, b[sl+IDBytes:], true
}

// onDataMessage delivers a binary data envelope to its app handler. Like
// the JSON direct path it learns the sender, so data traffic keeps
// refreshing overlay state.
func (n *Node) onDataMessage(msg transport.Message) {
	app, src, body, ok := parseDataEnvelope(msg.Payload)
	if !ok {
		return // malformed: drop
	}
	n.learn(src)
	if h, ok := n.apps[app]; ok {
		h(n.info.ID, src, body)
	}
}

// onDataDropped routes a dropped binary data envelope to the app's drop
// observer, mirroring the JSON direct path in onDropped.
func (n *Node) onDataDropped(msg transport.Message) {
	app, src, body, ok := parseDataEnvelope(msg.Payload)
	if !ok {
		return
	}
	if h, ok := n.dropObs[app]; ok {
		h(n.info.ID, src, body)
	}
}
