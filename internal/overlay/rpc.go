package overlay

import (
	"encoding/binary"
	"errors"
	"time"

	"rasc.dev/rasc/internal/transport"
)

// msgTypeRPC is the transport message type of the RPC envelope, which
// carries every direct request and its response (stats, instantiate,
// teardown, $ping, federation, gossip sync). The body travels raw.
//
//	rpc := kind:u8 reqID:u64 header errLen:u16 err body
//
// header (wire.go) names the app and the sender.
const msgTypeRPC = "overlay-rpc"

const (
	rpcRequest  = 1
	rpcResponse = 2
)

// rpcEnvelope is one decoded RPC frame. Body aliases the frame's bytes.
type rpcEnvelope struct {
	Kind  byte
	ReqID uint64
	App   string
	Src   NodeInfo
	Err   string
	Body  []byte
}

// appendRPCEnvelope encodes env. A name that does not fit its u8 length
// prefix is refused; an error string is cut to what its u16 prefix holds
// (it is a diagnostic, not an identity).
func appendRPCEnvelope(buf []byte, env rpcEnvelope) ([]byte, error) {
	if len(env.Err) > 0xffff {
		env.Err = env.Err[:0xffff]
	}
	buf = append(buf, env.Kind)
	buf = binary.BigEndian.AppendUint64(buf, env.ReqID)
	buf, err := appendHeader(buf, env.App, env.Src)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(env.Err)))
	buf = append(buf, env.Err...)
	return append(buf, env.Body...), nil
}

// parseRPCEnvelope decodes an RPC frame, rejecting unknown kinds and any
// length prefix that runs past the end of the frame.
func parseRPCEnvelope(b []byte) (env rpcEnvelope, ok bool) {
	if len(b) < 9 || (b[0] != rpcRequest && b[0] != rpcResponse) {
		return rpcEnvelope{}, false
	}
	env.Kind = b[0]
	env.ReqID = binary.BigEndian.Uint64(b[1:])
	env.App, env.Src, b, ok = parseHeader(b[9:])
	if !ok || len(b) < 2 {
		return rpcEnvelope{}, false
	}
	el := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+el {
		return rpcEnvelope{}, false
	}
	env.Err = string(b[2 : 2+el])
	env.Body = b[2+el:]
	return env, true
}

// encodeRPC frames env with this node as the sender.
func (n *Node) encodeRPC(env rpcEnvelope) ([]byte, error) {
	env.Src = n.info
	size := 11 + headerOverhead + len(env.App) + len(n.info.Addr) + len(n.info.Cluster) + len(env.Err) + len(env.Body)
	return appendRPCEnvelope(make([]byte, 0, size), env)
}

// Request sends a direct request to a specific node and invokes cb with the
// response or an error. The callback always runs exactly once; a request
// that cannot be framed (ErrDataNameTooLong) fails before Request returns.
func (n *Node) Request(to transport.Addr, app string, body []byte, timeout time.Duration, cb func(body []byte, err error)) {
	n.nextReq++
	id := n.nextReq
	frame, err := n.encodeRPC(rpcEnvelope{Kind: rpcRequest, ReqID: id, App: app, Body: body})
	if err != nil {
		cb(nil, err)
		return
	}
	p := &pendingReq{cb: cb}
	p.cancel = n.clk.After(timeout, func() {
		if _, ok := n.pending[id]; ok {
			delete(n.pending, id)
			cb(nil, ErrTimeout)
		}
	})
	n.pending[id] = p
	// Send errors are best-effort; a dead peer is handled by the timeout.
	_ = n.ep.Send(to, transport.Message{Type: msgTypeRPC, Payload: frame})
}

// onRPCMessage serves a request through its registered handler, or
// completes the pending request a response answers. Like every overlay
// message it teaches the node its sender.
func (n *Node) onRPCMessage(msg transport.Message) {
	env, ok := parseRPCEnvelope(msg.Payload)
	if !ok {
		return // malformed: drop
	}
	n.learn(env.Src)
	if env.Kind == rpcResponse {
		p, ok := n.pending[env.ReqID]
		if !ok {
			return // late or duplicate response
		}
		delete(n.pending, env.ReqID)
		p.cancel()
		if env.Err != "" {
			p.cb(nil, errors.New(env.Err))
			return
		}
		p.cb(env.Body, nil)
		return
	}
	reply := func(body []byte, errStr string) {
		// A response names no app, so only this node's own address or
		// cluster could make it unframeable, and then it could not have
		// joined; the requester's timeout covers that.
		frame, err := n.encodeRPC(rpcEnvelope{Kind: rpcResponse, ReqID: env.ReqID, Err: errStr, Body: body})
		if err == nil {
			_ = n.ep.Send(env.Src.Addr, transport.Message{Type: msgTypeRPC, Payload: frame})
		}
	}
	h, ok := n.rpcs[env.App]
	if !ok {
		reply(nil, "overlay: no handler for app "+env.App)
		return
	}
	responded := false
	h(env.Src, env.Body, func(body []byte, errStr string) {
		if responded {
			return
		}
		responded = true
		reply(body, errStr)
	})
}
