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
// type the node dispatches on (overlay envelope, RPC envelope, data
// envelope): malformed frames must be dropped without panicking or
// corrupting state. The corpus holds a well-formed overlay frame of every
// kind, so the fuzzer starts past the decoder, in the protocol handlers.
func FuzzOnMessage(f *testing.F) {
	for _, env := range everyKind() {
		f.Add(envelopeFrame(env))
	}
	route := envelopeFrame(everyKind()[0])
	f.Add(route[:len(route)/2])
	f.Add([]byte(`{"k":"route","a":"x"}`)) // the parent's wire: rejected now
	f.Add(rpcFrame(fullRPC()))
	f.Add(rpcFrame(rpcEnvelope{Kind: rpcRequest, ReqID: 9, App: "missing", Src: NodeInfo{ID: HashID("fuzz-a"), Addr: "sim://0"}}))
	f.Add(rpcFrame(fullRPC())[:15])
	f.Add(dataEnvelope("missing", NodeInfo{ID: HashID("fuzz-a"), Addr: "sim://0"}, []byte("x")))
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
		if err := b.Route(b.ID(), "after", nil); err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(sim.Now() + 10e9)
		if !delivered {
			t.Fatal("node stopped routing after malformed input")
		}
	})
}

// FuzzParseEnvelope feeds arbitrary bytes to the decoder every routing and
// membership message comes through: it must never panic, never allocate
// more nodes than the frame has bytes for, and whatever it accepts must
// survive encode and decode unchanged.
func FuzzParseEnvelope(f *testing.F) {
	for _, env := range everyKind() {
		f.Add(envelopeFrame(env))
	}
	join := envelopeFrame(everyKind()[1])
	f.Add(join[:len(join)-7]) // node list cut short
	f.Add([]byte{kindLeafXchg, 0, hasNodes, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Add([]byte{kindRoute, 0, hasEnd, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		env, ok := parseEnvelope(payload, nil)
		if !ok {
			return
		}
		if len(env.Nodes)*NodeInfoOverhead > len(payload) {
			t.Fatalf("%d nodes decoded from a %d-byte frame", len(env.Nodes), len(payload))
		}
		frame, err := appendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		back, ok := parseEnvelope(frame, nil)
		if !ok || !sameEnvelope(back, env) {
			t.Fatalf("re-encoded frame decodes differently:\n got %+v\nwant %+v", back, env)
		}
	})
}

// FuzzParseDataEnvelope feeds arbitrary bytes to the decoder of the header
// every envelope shares, and of the node reference inside it (the data
// envelope is that header and a body, so this is also the decoder that
// takes every data unit off the network): it must never panic, whatever it
// accepts must re-encode to exactly the input, and a node handed the bytes
// as a message or as a drop must survive them.
func FuzzParseDataEnvelope(f *testing.F) {
	src := NodeInfo{ID: HashID("fuzz-src"), Addr: "10.0.0.1:4000", Cluster: "c1"}
	whole := dataEnvelope("stream-data-batch", src, []byte{0, 1, 2, 3})
	f.Add(whole)
	f.Add(whole[:len(whole)-8]) // body gone, cluster cut short
	f.Add(dataEnvelope("", NodeInfo{}, nil))
	f.Add([]byte{})
	f.Add([]byte{255})
	f.Add([]byte{3, 'a', 'p', 'p', 200})
	f.Add(nodeInfoBytes(src))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if info, rest, ok := ParseNodeInfo(payload); ok {
			back, err := AppendNodeInfo(nil, info)
			if err != nil || !bytes.Equal(append(back, rest...), payload) {
				t.Fatalf("accepted node reference does not re-encode to its input (%v): %+v", err, info)
			}
		}
		app, from, body, ok := parseHeader(payload, nil)
		if ok && !bytes.Equal(dataEnvelope(app, from, body), payload) {
			t.Fatalf("accepted envelope does not re-encode to its input: app %q from %+v body %x", app, from, body)
		}
		n := newCluster(t, 1, 1).nodes[0]
		handled := false
		n.Register(app, func(ID, NodeInfo, []byte) { handled = true })
		n.RegisterDropObserver(app, func(ID, NodeInfo, []byte) {})
		n.onDataMessage(transport.Message{Type: msgTypeData, Payload: payload})
		n.onDataDropped("sim://0", transport.Message{Type: msgTypeData, Payload: payload})
		if handled != ok {
			t.Fatalf("handler ran = %v for an envelope with ok = %v", handled, ok)
		}
	})
}
