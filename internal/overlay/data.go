package overlay

import (
	"errors"

	"rasc.dev/rasc/internal/transport"
)

// msgTypeData is the transport message type of the binary data envelope.
// The JSON envelope (msgType) carries routing and membership; the data
// envelope carries the stream data plane's units, where per-message JSON
// marshal cost would dominate, and the RPC envelope (rpc.go) every
// request and response. The two binary envelopes name the app and the
// sender with the same header:
//
//	header := appLen:u8 app srcAddrLen:u8 srcAddr srcID[IDBytes]
//	data   := header body
const msgTypeData = "overlay-data"

// headerOverhead is the encoded header size minus app and source address.
const headerOverhead = 2 + IDBytes

// ErrDataNameTooLong reports an app name, node address or cluster name
// that does not fit a binary envelope's u8 length prefix.
var ErrDataNameTooLong = errors.New("overlay: app, address or cluster name longer than 255 bytes")

// appendHeader encodes the header the binary envelopes share. The caller
// has checked that app and src.Addr fit their u8 length prefixes.
func appendHeader(buf []byte, app string, src NodeInfo) []byte {
	buf = append(buf, byte(len(app)))
	buf = append(buf, app...)
	buf = append(buf, byte(len(src.Addr)))
	buf = append(buf, src.Addr...)
	return append(buf, src.ID[:]...)
}

// parseHeader decodes the shared header and returns what follows it.
func parseHeader(b []byte) (app string, src NodeInfo, rest []byte, ok bool) {
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

// DirectDataPadded is DirectPadded on the binary data envelope: datagram
// (loss-tolerant) delivery, pad extra bytes charged on the wire, and the
// returned error reporting local send failures. The payload is built with
// one exact-size allocation — the transport retains it until delivery, so
// the buffer cannot be pooled here.
func (n *Node) DirectDataPadded(to transport.Addr, app string, body []byte, pad int) error {
	if len(app) > 255 || len(n.info.Addr) > 255 {
		return ErrDataNameTooLong
	}
	buf := make([]byte, 0, headerOverhead+len(app)+len(n.info.Addr)+len(body))
	buf = appendHeader(buf, app, n.info)
	buf = append(buf, body...)
	return n.ep.Send(to, transport.Message{Type: msgTypeData, Payload: buf, Pad: pad, Datagram: true})
}

// onDataMessage delivers a binary data envelope to its app handler. Like
// the JSON direct path it learns the sender, so data traffic keeps
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

// onDataDropped routes a dropped binary data envelope to the app's drop
// observer, mirroring the JSON direct path in onDropped.
func (n *Node) onDataDropped(msg transport.Message) {
	app, src, body, ok := parseHeader(msg.Payload)
	if !ok {
		return
	}
	if h, ok := n.dropObs[app]; ok {
		h(n.info.ID, src, body)
	}
}
