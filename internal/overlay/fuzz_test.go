package overlay

import (
	"bytes"
	"testing"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/transport"
)

// FuzzParseID exercises the ID text codec with arbitrary input: it must
// never panic, and every successfully parsed ID must round-trip.
func FuzzParseID(f *testing.F) {
	f.Add("0123456789abcdef0123456789abcdef")
	f.Add("")
	f.Add("zz")
	f.Add("0123456789ABCDEF0123456789ABCDEF")
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseID(s)
		if err != nil {
			return
		}
		back, err := ParseID(id.String())
		if err != nil || back != id {
			t.Fatalf("round trip failed for %q", s)
		}
	})
}

// FuzzOnMessage delivers arbitrary bytes as an overlay message of every
// type the node dispatches on (JSON envelope, binary RPC envelope, binary
// data envelope): malformed frames must be dropped without panicking or
// corrupting state.
func FuzzOnMessage(f *testing.F) {
	f.Add([]byte(`{"k":"route","a":"x"}`))
	f.Add([]byte(`{"k":"join"}`))
	f.Add([]byte(`{"k":"route-ack","ack":1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"k":"direct","a":"missing"}`))
	f.Add(rpcFrame(fullRPC()))
	f.Add(rpcFrame(rpcEnvelope{Kind: rpcRequest, ReqID: 9, App: "missing", Src: NodeInfo{ID: HashID("fuzz-a"), Addr: "sim://0"}}))
	f.Add(rpcFrame(fullRPC())[:15])
	f.Fuzz(func(t *testing.T, payload []byte) {
		sim := netsim.New(1)
		nw := netsim.NewNetwork(sim, netsim.Config{})
		mem := transport.NewMemNetwork(nw)
		clk := clock.Sim{S: sim}
		a := NewNode(HashID("fuzz-a"), mem.Endpoint(nw.AddNode(1e8, 1e8)), clk)
		b := NewNode(HashID("fuzz-b"), mem.Endpoint(nw.AddNode(1e8, 1e8)), clk)
		a.Bootstrap()
		b.Join(a.Addr(), nil)
		sim.Run()
		// Inject the raw payload directly into b's handler.
		for _, typ := range []string{msgType, msgTypeRPC, msgTypeData} {
			b.onMessage(a.Addr(), transport.Message{Type: typ, Payload: payload})
		}
		sim.RunUntil(sim.Now() + 10e9)
		// The node must still route afterwards.
		delivered := false
		b.Register("after", func(ID, NodeInfo, []byte) { delivered = true })
		b.Route(b.ID(), "after", nil)
		sim.RunUntil(sim.Now() + 10e9)
		if !delivered {
			t.Fatal("node stopped routing after malformed input")
		}
	})
}

// FuzzParseDataEnvelope feeds arbitrary bytes to the binary data envelope
// decoder, which takes every data unit off the network: it must never
// panic, whatever it accepts must re-encode to exactly the input, and a
// node handed the bytes as a message or as a drop must survive them.
func FuzzParseDataEnvelope(f *testing.F) {
	src := NodeInfo{ID: HashID("fuzz-src"), Addr: "10.0.0.1:4000"}
	whole := dataEnvelope("stream-data-batch", src, []byte{0, 1, 2, 3})
	f.Add(whole)
	f.Add(whole[:len(whole)-5]) // body gone, source ID cut short
	f.Add(dataEnvelope("", NodeInfo{}, nil))
	f.Add([]byte{})
	f.Add([]byte{255})
	f.Add([]byte{3, 'a', 'p', 'p', 200})
	f.Fuzz(func(t *testing.T, payload []byte) {
		app, from, body, ok := parseHeader(payload)
		if ok && !bytes.Equal(dataEnvelope(app, from, body), payload) {
			t.Fatalf("accepted envelope does not re-encode to its input: app %q from %+v body %x", app, from, body)
		}
		n := newCluster(t, 1, 1).nodes[0]
		handled := false
		n.Register(app, func(ID, NodeInfo, []byte) { handled = true })
		n.RegisterDropObserver(app, func(ID, NodeInfo, []byte) {})
		n.onDataMessage(transport.Message{Type: msgTypeData, Payload: payload})
		n.onDataDropped(transport.Message{Type: msgTypeData, Payload: payload})
		if handled != ok {
			t.Fatalf("handler ran = %v for an envelope with ok = %v", handled, ok)
		}
	})
}
