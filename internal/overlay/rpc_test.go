package overlay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/transport"
)

// rpcFrame builds the binary RPC envelope by hand, so the tests do not
// check the encoder against itself.
func rpcFrame(env rpcEnvelope) []byte {
	b := []byte{env.Kind}
	b = binary.BigEndian.AppendUint64(b, env.ReqID)
	b = append(b, dataEnvelope(env.App, env.Src, nil)...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(env.Err)))
	b = append(b, env.Err...)
	return append(b, env.Body...)
}

// fullRPC populates every field, including the ones a flat deployment
// leaves empty (cluster) and the one only failures use (error string).
func fullRPC() rpcEnvelope {
	return rpcEnvelope{
		Kind: rpcResponse, ReqID: 0x0102030405060708, App: "stats",
		Src:  NodeInfo{ID: HashID("rpc-src"), Addr: "10.0.0.1:4000", Cluster: "c1"},
		Err:  "stream: bad instantiate",
		Body: []byte{0, 0xff, '"', '\n', 0x80},
	}
}

func sameRPC(a, b rpcEnvelope) bool {
	return a.Kind == b.Kind && a.ReqID == b.ReqID && a.App == b.App && a.Src == b.Src &&
		a.Err == b.Err && bytes.Equal(a.Body, b.Body)
}

func TestRPCEnvelopeRoundTripsEveryField(t *testing.T) {
	want := fullRPC()
	frame, err := appendRPCEnvelope(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, rpcFrame(want)) {
		t.Fatalf("encoder departs from the documented layout:\n got %x\nwant %x", frame, rpcFrame(want))
	}
	got, ok := parseRPCEnvelope(frame, nil)
	if !ok || !sameRPC(got, want) {
		t.Fatalf("round trip: ok=%v\n got %+v\nwant %+v", ok, got, want)
	}
	// An empty request costs its names, the header's three length bytes
	// and ID, and 11 bytes of its own.
	empty, _ := appendRPCEnvelope(nil, rpcEnvelope{Kind: rpcRequest, ReqID: 1, App: "stats", Src: NodeInfo{ID: HashID("a"), Addr: "sim://12"}})
	if want := 11 + headerOverhead + len("stats") + len("sim://12"); len(empty) != want {
		t.Fatalf("empty request is %d bytes, want %d", len(empty), want)
	}
}

// Every cut that lands inside the fixed fields or a length-prefixed one is
// rejected; a frame is never read past its end.
func TestParseRPCEnvelopeRejectsTruncatedAndUnknown(t *testing.T) {
	env := fullRPC()
	frame := rpcFrame(env)
	for cut := 0; cut < len(frame)-len(env.Body); cut++ {
		if _, ok := parseRPCEnvelope(frame[:cut], nil); ok {
			t.Fatalf("accepted a frame cut to %d of %d bytes", cut, len(frame))
		}
	}
	for _, kind := range []byte{0, 3, 'r', '{'} {
		bad := append([]byte(nil), frame...)
		bad[0] = kind
		if _, ok := parseRPCEnvelope(bad, nil); ok {
			t.Fatalf("accepted kind %d", kind)
		}
	}
	// An error-length prefix larger than what is left.
	short := rpcFrame(rpcEnvelope{Kind: rpcResponse, ReqID: 1, Src: env.Src})
	binary.BigEndian.PutUint16(short[len(short)-2:], 0xffff)
	if _, ok := parseRPCEnvelope(short, nil); ok {
		t.Fatal("accepted an error length running past the frame")
	}
}

// A name the u8 length prefixes cannot hold comes back through the
// callback as a typed error: nothing is sent, truncated, or left pending.
func TestRequestRejectsLongNames(t *testing.T) {
	c := newCluster(t, 2, 1)
	a, b := c.nodes[0], c.nodes[1]
	served := 0
	long := strings.Repeat("a", 256)
	for _, app := range []string{long, long[:255], "x"} {
		b.RegisterRequest(app, func(_ NodeInfo, _ []byte, respond func([]byte, string)) {
			served++
			respond(nil, "")
		})
	}
	request := func(app string) (calls int, err error) {
		a.Request(b.Addr(), app, []byte("x"), time.Second, func(_ []byte, e error) { calls++; err = e })
		c.sim.Run()
		return calls, err
	}
	if calls, err := request(long); calls != 1 || !errors.Is(err, ErrDataNameTooLong) {
		t.Fatalf("256-byte app: %d callbacks, err = %v; want one ErrDataNameTooLong", calls, err)
	}
	if served != 0 || len(a.pending) != 0 {
		t.Fatalf("a refused request was served %d times, %d left pending", served, len(a.pending))
	}
	if calls, err := request(long[:255]); calls != 1 || err != nil {
		t.Fatalf("255-byte app: %d callbacks, err = %v", calls, err)
	}
	a.SetCluster(long)
	if calls, err := request("x"); calls != 1 || !errors.Is(err, ErrDataNameTooLong) {
		t.Fatalf("256-byte cluster: %d callbacks, err = %v; want one ErrDataNameTooLong", calls, err)
	}
}

// The handler sees the requester's cluster and the raw body, the
// requester the raw reply or the handler's error string.
func TestRequestCarriesClusterBodyAndError(t *testing.T) {
	c := newCluster(t, 2, 1)
	a, b := c.nodes[0], c.nodes[1]
	a.SetCluster("c0")
	binaryBody := []byte{0, 0xff, 0x80, '"'}
	var from NodeInfo
	b.RegisterRequest("echo", func(f NodeInfo, body []byte, respond func([]byte, string)) {
		from = f
		respond(append([]byte(nil), body...), "")
	})
	b.RegisterRequest("fail", func(_ NodeInfo, _ []byte, respond func([]byte, string)) {
		respond([]byte("ignored"), "no capacity")
	})
	var got []byte
	a.Request(b.Addr(), "echo", binaryBody, time.Second, func(body []byte, err error) {
		if err != nil {
			t.Errorf("echo: %v", err)
		}
		got = body
	})
	var failErr error
	a.Request(b.Addr(), "fail", nil, time.Second, func(body []byte, err error) {
		if body != nil {
			t.Errorf("a failed request returned a body: %q", body)
		}
		failErr = err
	})
	c.sim.Run()
	if from != a.Info() || from.Cluster != "c0" {
		t.Fatalf("handler saw requester %+v, want %+v", from, a.Info())
	}
	if !bytes.Equal(got, binaryBody) {
		t.Fatalf("body came back as %x, want %x", got, binaryBody)
	}
	if failErr == nil || failErr.Error() != "no capacity" {
		t.Fatalf("handler error surfaced as %v", failErr)
	}
}

// FuzzParseRPCEnvelope feeds arbitrary bytes to the decoder every request
// and response comes through: it must never panic, whatever it accepts
// must re-encode to exactly the input, and a node handed the bytes must
// survive them and keep answering requests.
func FuzzParseRPCEnvelope(f *testing.F) {
	whole := rpcFrame(fullRPC())
	req := fullRPC()
	req.Kind, req.Err = rpcRequest, ""
	f.Add(whole)
	f.Add(rpcFrame(req))
	f.Add(whole[:20])
	f.Add(whole[:len(whole)-len(fullRPC().Body)-3]) // error string cut short
	f.Add(rpcFrame(rpcEnvelope{Kind: rpcRequest}))
	f.Add([]byte{})
	f.Add([]byte{rpcResponse, 0, 0, 0, 0, 0, 0, 0, 1, 255})
	f.Fuzz(func(t *testing.T, payload []byte) {
		env, ok := parseRPCEnvelope(payload, nil)
		if ok {
			back, err := appendRPCEnvelope(nil, env)
			if err != nil || !bytes.Equal(back, payload) {
				t.Fatalf("accepted frame does not re-encode to its input (%v): %+v", err, env)
			}
		}
		c := newCluster(t, 2, 1)
		a, b := c.nodes[0], c.nodes[1]
		b.RegisterRequest(env.App, func(_ NodeInfo, _ []byte, respond func([]byte, string)) { respond(nil, "") })
		b.onMessage(a.Addr(), transport.Message{Type: msgTypeRPC, Payload: payload})
		c.sim.Run()
		answered := false
		b.RegisterRequest("after", func(_ NodeInfo, _ []byte, respond func([]byte, string)) { respond([]byte("ok"), "") })
		a.Request(b.Addr(), "after", nil, time.Second, func(body []byte, err error) { answered = err == nil && string(body) == "ok" })
		c.sim.Run()
		if !answered {
			t.Fatal("node stopped answering requests after a fuzzed frame")
		}
	})
}
