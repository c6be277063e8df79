package overlay

import (
	"encoding/binary"
	"errors"

	"rasc.dev/rasc/internal/transport"
)

// Every overlay frame is binary, built from the two pieces below. This file
// is the only place that knows how a node reference looks on the wire; the
// RPC and data envelopes (rpc.go, data.go), the DHT's host records
// (internal/discovery) and the stream runtime's instantiate bodies
// (internal/stream) all go through AppendNodeInfo and ParseNodeInfo.
//
//	nodeinfo := addrLen:u8 addr id[IDBytes] clusterLen:u8 cluster
//	header   := appLen:u8 app nodeinfo

// NodeInfoOverhead is the encoded size of a node reference minus its
// address and cluster name, and so the least a reference can occupy.
const NodeInfoOverhead = 2 + IDBytes

// headerOverhead is the encoded header size minus app, address and cluster.
const headerOverhead = 1 + NodeInfoOverhead

// ErrDataNameTooLong reports an app name, node address or cluster name
// that does not fit a frame's u8 length prefix.
var ErrDataNameTooLong = errors.New("overlay: app, address or cluster name longer than 255 bytes")

// fits reports whether the reference's names fit their u8 length prefixes.
func (info NodeInfo) fits() bool { return len(info.Addr) <= 255 && len(info.Cluster) <= 255 }

// AppendNodeInfo appends the wire form of a node reference, refusing an
// address or cluster name its u8 length prefixes cannot hold.
func AppendNodeInfo(buf []byte, info NodeInfo) ([]byte, error) {
	if !info.fits() {
		return buf, ErrDataNameTooLong
	}
	buf = append(buf, byte(len(info.Addr)))
	buf = append(buf, info.Addr...)
	buf = append(buf, info.ID[:]...)
	buf = append(buf, byte(len(info.Cluster)))
	return append(buf, info.Cluster...), nil
}

// ParseNodeInfo decodes a node reference from the front of b and returns
// what follows it; ok is false when a length prefix runs past the end.
func ParseNodeInfo(b []byte) (info NodeInfo, rest []byte, ok bool) { return parseNodeInfo(b, nil) }

// parseNodeInfo is ParseNodeInfo on behalf of the receiving node n: a
// reference to n itself or a peer n has learned comes back as n's own
// copy, so decoding it allocates nothing. A nil n copies the names out of
// the frame.
func parseNodeInfo(b []byte, n *Node) (info NodeInfo, rest []byte, ok bool) {
	if len(b) < 1 || len(b) < 1+int(b[0])+IDBytes+1 {
		return NodeInfo{}, nil, false
	}
	addr := b[1 : 1+int(b[0])]
	b = b[1+len(addr):]
	copy(info.ID[:], b)
	cl := int(b[IDBytes])
	b = b[IDBytes+1:]
	if len(b) < cl {
		return NodeInfo{}, nil, false
	}
	cluster := b[:cl]
	if known, ok := n.known(info.ID, addr, cluster); ok {
		return known, b[cl:], true
	}
	info.Addr = transport.Addr(addr)
	info.Cluster = string(cluster)
	return info, b[cl:], true
}

// appendHeader encodes the header every envelope names its app and sender
// with.
func appendHeader(buf []byte, app string, src NodeInfo) ([]byte, error) {
	if len(app) > 255 {
		return buf, ErrDataNameTooLong
	}
	buf = append(buf, byte(len(app)))
	buf = append(buf, app...)
	return AppendNodeInfo(buf, src)
}

// parseHeader decodes the shared header on behalf of the receiving node n
// and returns what follows it. An app n registered and a sender n has
// learned come back as n's own strings, so the header of a message from a
// known peer to a known app decodes without allocating. A nil n copies both
// out.
func parseHeader(b []byte, n *Node) (app string, src NodeInfo, rest []byte, ok bool) {
	if len(b) < 1 || len(b) < 1+int(b[0]) {
		return "", NodeInfo{}, nil, false
	}
	al := int(b[0])
	src, rest, ok = parseNodeInfo(b[1+al:], n)
	if !ok {
		return "", NodeInfo{}, nil, false
	}
	return n.appName(b[1 : 1+al]), src, rest, true
}

// msgType is the transport message type of the overlay envelope, which
// carries routing, membership and routed application messages. Data units
// and direct messages ride the data envelope (data.go), requests and
// responses the RPC envelope (rpc.go).
//
//	envelope := kind:u8 hops:u8 present:u8 header
//	            [key[IDBytes]] [ack:u64] [joiner:nodeinfo] [count:u16 nodeinfo*] body
//
// present says which of the four bracketed fields follow, in that order;
// the encoder leaves out a field whose value is zero.
const msgType = "overlay"

const (
	kindRoute byte = 1 + iota
	kindJoin
	kindJoinReply
	kindAnnounce
	kindAnnounceAck
	kindLeafXchg
	kindRouteAck
	kindEnd // one past the last kind
)

const (
	hasKey byte = 1 << iota
	hasAck
	hasJoiner
	hasNodes
	hasEnd // one past the last presence bit
)

// envelope is one decoded overlay frame. Body aliases the frame's bytes.
type envelope struct {
	Kind   byte
	Hops   int // saturates at 255 on the wire; MaxHops is far below
	App    string
	Src    NodeInfo
	Key    ID
	Ack    uint64 // hop-by-hop route ack id
	Joiner NodeInfo
	Nodes  []NodeInfo
	Body   []byte
}

// appendEnvelope encodes env, refusing any name that does not fit its u8
// length prefix. A node list longer than its u16 count is cut to it (a join
// gathers at most a routing-table row per hop).
func appendEnvelope(buf []byte, env envelope) ([]byte, error) {
	nodes := env.Nodes[:min(len(env.Nodes), 0xffff)]
	var present byte
	if env.Key != (ID{}) {
		present |= hasKey
	}
	if env.Ack != 0 {
		present |= hasAck
	}
	if env.Joiner != (NodeInfo{}) {
		present |= hasJoiner
	}
	if len(nodes) > 0 {
		present |= hasNodes
	}
	buf = append(buf, env.Kind, byte(min(env.Hops, 255)), present)
	buf, err := appendHeader(buf, env.App, env.Src)
	if err != nil {
		return nil, err
	}
	if present&hasKey != 0 {
		buf = append(buf, env.Key[:]...)
	}
	if present&hasAck != 0 {
		buf = binary.BigEndian.AppendUint64(buf, env.Ack)
	}
	if present&hasJoiner != 0 {
		if buf, err = AppendNodeInfo(buf, env.Joiner); err != nil {
			return nil, err
		}
	}
	if present&hasNodes != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(nodes)))
		for _, info := range nodes {
			if buf, err = AppendNodeInfo(buf, info); err != nil {
				return nil, err
			}
		}
	}
	return append(buf, env.Body...), nil
}

// parseEnvelope decodes an overlay frame on behalf of n (see parseHeader;
// n may be nil). It rejects unknown kinds and
// presence bits and any length prefix that runs past the end, and checks a
// node count against the bytes that remain before allocating for it.
func parseEnvelope(b []byte, n *Node) (env envelope, ok bool) {
	if len(b) < 3 || b[0] < kindRoute || b[0] >= kindEnd || b[2] >= hasEnd {
		return envelope{}, false
	}
	env.Kind, env.Hops = b[0], int(b[1])
	present := b[2]
	if env.App, env.Src, b, ok = parseHeader(b[3:], n); !ok {
		return envelope{}, false
	}
	if present&hasKey != 0 {
		if len(b) < IDBytes {
			return envelope{}, false
		}
		copy(env.Key[:], b)
		b = b[IDBytes:]
	}
	if present&hasAck != 0 {
		if len(b) < 8 {
			return envelope{}, false
		}
		env.Ack = binary.BigEndian.Uint64(b)
		b = b[8:]
	}
	if present&hasJoiner != 0 {
		if env.Joiner, b, ok = parseNodeInfo(b, n); !ok {
			return envelope{}, false
		}
	}
	if present&hasNodes != 0 {
		if len(b) < 2 {
			return envelope{}, false
		}
		count := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if count*NodeInfoOverhead > len(b) {
			return envelope{}, false
		}
		env.Nodes = make([]NodeInfo, count)
		for i := range env.Nodes {
			if env.Nodes[i], b, ok = parseNodeInfo(b, n); !ok {
				return envelope{}, false
			}
		}
	}
	env.Body = b
	return env, true
}
