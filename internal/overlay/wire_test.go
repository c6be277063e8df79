package overlay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rasc.dev/rasc/internal/transport"
)

// everyKind returns one well-formed envelope of each kind, carrying the
// fields that kind carries on the wire (route first, join second).
func everyKind() []envelope {
	src := NodeInfo{ID: HashID("env-src"), Addr: "10.0.0.1:4000", Cluster: "c1"}
	peer := NodeInfo{ID: HashID("env-peer"), Addr: "sim://7"}
	return []envelope{
		{Kind: kindRoute, Hops: 3, App: "dht", Src: src, Key: HashID("k"), Ack: 7, Body: []byte{0, 0xff, '"', '\n'}},
		{Kind: kindJoin, Hops: 1, Src: peer, Key: peer.ID, Ack: 1 << 40, Joiner: peer, Nodes: []NodeInfo{src, peer}},
		{Kind: kindJoinReply, Src: src, Nodes: []NodeInfo{peer, src, {ID: HashID("third")}}},
		{Kind: kindAnnounce, Src: src},
		{Kind: kindAnnounceAck, Src: src, Nodes: []NodeInfo{peer}},
		{Kind: kindLeafXchg, Src: peer, Nodes: []NodeInfo{src}},
		{Kind: kindRouteAck, Src: src, Ack: 7},
	}
}

// envelopeFrame builds the overlay envelope by hand from the documented
// layout, so the tests do not check the encoder against itself.
func envelopeFrame(env envelope) []byte {
	var present byte
	var opt []byte
	if env.Key != (ID{}) {
		present |= 1
		opt = append(opt, env.Key[:]...)
	}
	if env.Ack != 0 {
		present |= 2
		opt = binary.BigEndian.AppendUint64(opt, env.Ack)
	}
	if env.Joiner != (NodeInfo{}) {
		present |= 4
		opt = append(opt, nodeInfoBytes(env.Joiner)...)
	}
	if len(env.Nodes) > 0 {
		present |= 8
		opt = binary.BigEndian.AppendUint16(opt, uint16(len(env.Nodes)))
		for _, info := range env.Nodes {
			opt = append(opt, nodeInfoBytes(info)...)
		}
	}
	b := []byte{env.Kind, byte(env.Hops), present}
	b = append(b, dataEnvelope(env.App, env.Src, nil)...)
	b = append(b, opt...)
	return append(b, env.Body...)
}

func sameEnvelope(a, b envelope) bool {
	return a.Kind == b.Kind && a.Hops == b.Hops && a.App == b.App && a.Src == b.Src && a.Key == b.Key &&
		a.Ack == b.Ack && a.Joiner == b.Joiner && bytes.Equal(a.Body, b.Body) &&
		len(a.Nodes) == len(b.Nodes) && (len(a.Nodes) == 0 || reflect.DeepEqual(a.Nodes, b.Nodes))
}

// Every kind round-trips with the fields it carries, and with each
// optional field taken away or added in turn.
func TestEnvelopeRoundTripsEveryKindAndField(t *testing.T) {
	check := func(want envelope) {
		t.Helper()
		frame, err := appendEnvelope(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, envelopeFrame(want)) {
			t.Fatalf("encoder departs from the documented layout for %+v:\n got %x\nwant %x", want, frame, envelopeFrame(want))
		}
		got, ok := parseEnvelope(frame, nil)
		if !ok || !sameEnvelope(got, want) {
			t.Fatalf("round trip: ok=%v\n got %+v\nwant %+v", ok, got, want)
		}
	}
	full := everyKind()[1]
	full.App, full.Body = "app", []byte("payload")
	for _, env := range everyKind() {
		check(env)
		for kind := kindRoute; kind < kindEnd; kind++ {
			for _, toggle := range []func(*envelope){
				func(e *envelope) { e.Key = ID{} },
				func(e *envelope) { e.Key = full.Key },
				func(e *envelope) { e.Ack = 0 },
				func(e *envelope) { e.Ack = full.Ack },
				func(e *envelope) { e.Joiner = NodeInfo{} },
				func(e *envelope) { e.Joiner = full.Joiner },
				func(e *envelope) { e.Nodes = nil },
				func(e *envelope) { e.Nodes = full.Nodes },
				func(e *envelope) { e.App, e.Body = "", nil },
				func(e *envelope) { e.App, e.Body = full.App, full.Body },
			} {
				e := env
				e.Kind = kind
				toggle(&e)
				check(e)
			}
		}
	}
}

// Names of 0 and 255 bytes are framed; 256 is refused with the typed error
// by every encoder that can meet one.
func TestEnvelopeNameLengths(t *testing.T) {
	long := strings.Repeat("n", 256)
	ok := NodeInfo{ID: HashID("x"), Addr: transport.Addr(long[:255]), Cluster: long[:255]}
	for _, env := range []envelope{
		{Kind: kindRoute, App: "", Src: NodeInfo{}},
		{Kind: kindRoute, App: long[:255], Src: ok, Joiner: ok, Nodes: []NodeInfo{ok, {}}},
	} {
		frame, err := appendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("%d-byte names refused: %v", len(env.App), err)
		}
		if got, parsed := parseEnvelope(frame, nil); !parsed || !sameEnvelope(got, env) {
			t.Fatalf("%d-byte names do not round-trip", len(env.App))
		}
	}
	longAddr, longCluster := ok, ok
	longAddr.Addr, longCluster.Cluster = transport.Addr(long), long
	for name, env := range map[string]envelope{
		"app":            {Kind: kindRoute, App: long},
		"src addr":       {Kind: kindRoute, Src: longAddr},
		"src cluster":    {Kind: kindRoute, Src: longCluster},
		"joiner addr":    {Kind: kindJoin, Joiner: longAddr},
		"joiner cluster": {Kind: kindJoin, Joiner: longCluster},
		"node addr":      {Kind: kindLeafXchg, Nodes: []NodeInfo{ok, longAddr}},
		"node cluster":   {Kind: kindLeafXchg, Nodes: []NodeInfo{longCluster}},
	} {
		if _, err := appendEnvelope(nil, env); !errors.Is(err, ErrDataNameTooLong) {
			t.Fatalf("256-byte %s: err = %v, want ErrDataNameTooLong", name, err)
		}
	}
	if _, err := AppendNodeInfo(nil, longAddr); !errors.Is(err, ErrDataNameTooLong) {
		t.Fatalf("AppendNodeInfo with a 256-byte address: err = %v", err)
	}
}

// Route and Direct refuse an unframeable name with the typed error and send
// nothing, whether or not the key's root is this node; a node whose peer
// table holds an unframeable reference drops the frame instead of
// panicking.
func TestRouteAndDirectRejectLongNames(t *testing.T) {
	c := newCluster(t, 4, 1)
	a := c.nodes[0]
	long := strings.Repeat("a", 256)
	delivered := 0
	for _, nd := range c.nodes {
		nd.Register(long, func(ID, NodeInfo, []byte) { delivered++ })
		nd.Register(long[:255], func(ID, NodeInfo, []byte) { delivered++ })
	}
	for _, key := range []ID{a.ID(), c.nodes[2].ID()} {
		if err := a.Route(key, long, nil); !errors.Is(err, ErrDataNameTooLong) {
			t.Fatalf("Route with a 256-byte app: err = %v, want ErrDataNameTooLong", err)
		}
	}
	if err := a.Direct(c.nodes[1].Addr(), long, nil); !errors.Is(err, ErrDataNameTooLong) {
		t.Fatalf("Direct with a 256-byte app: err = %v, want ErrDataNameTooLong", err)
	}
	c.sim.Run()
	if delivered != 0 || len(a.pendingAcks) != 0 {
		t.Fatalf("refused sends: %d delivered, %d acks pending", delivered, len(a.pendingAcks))
	}
	if err := a.Route(c.nodes[2].ID(), long[:255], nil); err != nil {
		t.Fatalf("Route with a 255-byte app: %v", err)
	}
	if err := a.Direct(c.nodes[1].Addr(), long[:255], nil); err != nil {
		t.Fatalf("Direct with a 255-byte app: %v", err)
	}
	c.sim.Run()
	if delivered != 2 {
		t.Fatalf("255-byte app delivered %d of 2", delivered)
	}
	a.AddPeer(NodeInfo{ID: HashID("unframeable"), Addr: transport.Addr("sim://" + long)})
	a.Stabilize() // its leaf set cannot be framed: dropped, no panic
	a.SetCluster(long)
	if err := a.Route(c.nodes[2].ID(), "x", nil); !errors.Is(err, ErrDataNameTooLong) {
		t.Fatalf("Route from a node with a 256-byte cluster: err = %v", err)
	}
	c.sim.Run()
}

// A count field is checked against the bytes that remain before anything is
// allocated for it, unknown kinds and presence bits are rejected, and no
// cut of a full frame short of its body is accepted.
func TestParseEnvelopeRejectsMalformed(t *testing.T) {
	small := envelopeFrame(envelope{Kind: kindLeafXchg, Src: NodeInfo{ID: HashID("s"), Addr: "sim://1"}, Nodes: []NodeInfo{{ID: HashID("n")}}})
	if len(small) != 49 {
		t.Fatalf("fixture is %d bytes", len(small))
	}
	huge := append([]byte(nil), small...)
	binary.BigEndian.PutUint16(huge[len(huge)-NodeInfoOverhead-2:], 0xffff)
	if _, ok := parseEnvelope(huge, nil); ok {
		t.Fatal("accepted a node count of 65535 in a 49-byte frame")
	}
	if allocs := testing.AllocsPerRun(100, func() { parseEnvelope(huge, nil) }); allocs > 1 {
		t.Fatalf("rejecting an oversized node count allocated %v times", allocs)
	}
	full := everyKind()[1]
	full.App, full.Body = "app", []byte("payload")
	frame := envelopeFrame(full)
	for cut := 0; cut < len(frame)-len(full.Body); cut++ {
		if _, ok := parseEnvelope(frame[:cut], nil); ok {
			t.Fatalf("accepted a frame cut to %d of %d bytes", cut, len(frame))
		}
	}
	for _, kind := range []byte{0, kindEnd, 'r', '{'} {
		bad := append([]byte(nil), frame...)
		bad[0] = kind
		if _, ok := parseEnvelope(bad, nil); ok {
			t.Fatalf("accepted kind %d", kind)
		}
	}
	bad := append([]byte(nil), frame...)
	bad[2] |= hasEnd
	if _, ok := parseEnvelope(bad, nil); ok {
		t.Fatal("accepted an unknown presence bit")
	}
}

// tapEndpoint records what an endpoint sends.
type tapEndpoint struct {
	transport.Endpoint
	sent func(transport.Message)
}

func (e tapEndpoint) Send(to transport.Addr, msg transport.Message) error {
	e.sent(msg)
	return e.Endpoint.Send(to, msg)
}

// Wire-size pins: what the routing and membership frames cost on the
// simulator's links (transport.Message.WireSize, nodes at sim://NN), so the
// fat of the JSON envelope cannot creep back.
const (
	maxRouteAckWire = 100 // 243 as JSON
	maxLeafXchgWire = 520 // 1198 as JSON, 16 nodes
)

func TestEnvelopeWireSizes(t *testing.T) {
	node := func(i int) NodeInfo {
		return NodeInfo{ID: HashID(fmt.Sprint("pin-", i)), Addr: transport.Addr(fmt.Sprintf("sim://%d", 10+i))}
	}
	wire := func(env envelope) int {
		frame, err := appendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{Type: msgType, Payload: frame}.WireSize()
	}
	if got := wire(envelope{Kind: kindRouteAck, Src: node(0), Ack: 1 << 20}); got > maxRouteAckWire {
		t.Fatalf("route-ack is %d bytes on the wire, pinned at most %d", got, maxRouteAckWire)
	}
	leaf := make([]NodeInfo, DefaultLeafSetSize)
	for i := range leaf {
		leaf[i] = node(i + 1)
	}
	if got := wire(envelope{Kind: kindLeafXchg, Src: node(0), Nodes: leaf}); got > maxLeafXchgWire {
		t.Fatalf("16-node leaf-set exchange is %d bytes on the wire, pinned at most %d", got, maxLeafXchgWire)
	}
}

// The whole protocol on the binary wire: sequential joins, the announce
// round each join ends with, leaf-set exchange, then a routed message the
// root answers directly. Every envelope kind crosses the wire and decodes,
// the overlay converges to full leaf sets, the message reaches the key's
// root and the reply its origin.
func TestJoinAnnounceExchangeRouteReply(t *testing.T) {
	kinds := make(map[byte]int)
	c := newTappedCluster(t, 12, 5, func(msg transport.Message) {
		if msg.Type != msgType {
			return
		}
		env, ok := parseEnvelope(msg.Payload, nil)
		if !ok {
			t.Errorf("a node sent an overlay frame that does not decode: %x", msg.Payload)
		}
		kinds[env.Kind]++
	})
	for i, nd := range c.nodes {
		if got := len(nd.Leafset()); got != 11 {
			t.Fatalf("node %d has %d of 11 peers in its leaf set", i, got)
		}
	}
	key := HashID("scenario-key")
	root, origin := c.root(key), c.nodes[3]
	if root == origin {
		origin = c.nodes[4]
	}
	for _, nd := range c.nodes {
		nd := nd
		nd.Register("ask", func(k ID, src NodeInfo, body []byte) {
			if nd != root || k != key || src != origin.Info() {
				t.Errorf("ask delivered at %s for key %s from %+v", nd.ID(), k, src)
			}
			if err := nd.Direct(src.Addr, "answer", append([]byte("re:"), body...)); err != nil {
				t.Error(err)
			}
		})
	}
	var answer string
	var answeredBy NodeInfo
	origin.Register("answer", func(_ ID, src NodeInfo, body []byte) { answer, answeredBy = string(body), src })
	if err := origin.Route(key, "ask", []byte("who")); err != nil {
		t.Fatal(err)
	}
	c.sim.Run()
	if answer != "re:who" || answeredBy != root.Info() {
		t.Fatalf("origin got %q from %+v, want %q from the root %+v", answer, answeredBy, "re:who", root.Info())
	}
	for kind := kindRoute; kind < kindEnd; kind++ {
		if kinds[kind] == 0 {
			t.Errorf("no frame of kind %d crossed the wire", kind)
		}
	}
}

func TestDirectDeliversReliablyWithSenderCluster(t *testing.T) {
	c := newCluster(t, 2, 1)
	a, b := c.nodes[0], c.nodes[1]
	a.SetCluster("c0")
	var from NodeInfo
	b.Register("note", func(_ ID, src NodeInfo, _ []byte) { from = src })
	var sent transport.Message
	a.ep = tapEndpoint{Endpoint: a.ep, sent: func(m transport.Message) { sent = m }}
	if err := a.Direct(b.Addr(), "note", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.sim.Run()
	if from != a.Info() || from.Cluster != "c0" {
		t.Fatalf("handler saw sender %+v, want %+v", from, a.Info())
	}
	if sent.Type != msgTypeData || sent.Datagram || sent.Pad != 0 {
		t.Fatalf("Direct sent %+v, want a reliable unpadded data envelope", sent)
	}
}
