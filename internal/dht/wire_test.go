package dht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/simnet"
	"rasc.dev/rasc/internal/transport"
)

// messageBytes builds the DHT message by hand from the documented layout,
// so the tests do not check the encoder against itself.
func messageBytes(m message) []byte {
	value := func(b, v []byte) []byte {
		b = binary.BigEndian.AppendUint16(b, uint16(len(v)))
		return append(b, v...)
	}
	b := []byte{m.Op, 0}
	if m.Remove {
		b[1] = 1
	}
	b = append(b, m.Key[:]...)
	b = binary.BigEndian.AppendUint64(b, m.ReqID)
	b = value(b, m.Value)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Values)))
	for _, v := range m.Values {
		b = value(b, v)
	}
	return b
}

func sameMessage(a, b message) bool {
	return a.Op == b.Op && a.Key == b.Key && a.ReqID == b.ReqID && a.Remove == b.Remove &&
		bytes.Equal(a.Value, b.Value) && len(a.Values) == len(b.Values) &&
		(len(a.Values) == 0 || reflect.DeepEqual(a.Values, b.Values))
}

// everyOp returns one message of each op with the fields that op carries.
func everyOp() []message {
	key := overlay.HashID("svc:filter")
	return []message{
		{Op: opPut, Key: key, Value: []byte{0, 0xff, '"', '\n'}},
		{Op: opRemove, Key: key, Value: []byte("host-3")},
		{Op: opGet, Key: key, ReqID: 0x0102030405060708},
		{Op: opReply, Key: key, ReqID: 9, Values: [][]byte{[]byte("a"), {}, []byte("host-3")}},
		{Op: opReplica, Key: key, Value: []byte("host-3"), Remove: true},
	}
}

func TestMessageRoundTripsEveryOpAndField(t *testing.T) {
	check := func(want message) {
		t.Helper()
		b := appendMessage(nil, want)
		if !bytes.Equal(b, messageBytes(want)) {
			t.Fatalf("encoder departs from the documented layout for %+v:\n got %x\nwant %x", want, b, messageBytes(want))
		}
		if len(want.Values) == 0 && len(b) != messageOverhead+len(want.Value) {
			t.Fatalf("message is %d bytes, want overhead %d + value %d", len(b), messageOverhead, len(want.Value))
		}
		got, ok := decodeMessage(b)
		if !ok || !sameMessage(got, want) {
			t.Fatalf("round trip: ok=%v\n got %+v\nwant %+v", ok, got, want)
		}
	}
	full := message{Value: []byte("v"), Values: [][]byte{[]byte("x"), []byte("y")}, ReqID: 7, Remove: true}
	for _, m := range everyOp() {
		check(m)
		for _, toggle := range []func(*message){
			func(m *message) { m.Value = nil },
			func(m *message) { m.Value = full.Value },
			func(m *message) { m.Value = bytes.Repeat([]byte{7}, 0xffff) },
			func(m *message) { m.Values = nil },
			func(m *message) { m.Values = full.Values },
			func(m *message) { m.ReqID = 0 },
			func(m *message) { m.ReqID = full.ReqID },
			func(m *message) { m.Remove = false },
			func(m *message) { m.Remove = true },
		} {
			v := m
			toggle(&v)
			check(v)
		}
	}
}

// A count or length is checked against the bytes that remain before
// anything is allocated for it; unknown ops and flags, cuts and trailing
// bytes are rejected.
func TestDecodeMessageRejectsMalformed(t *testing.T) {
	get := messageBytes(everyOp()[2])
	if len(get) != 30 {
		t.Fatalf("a get is %d bytes", len(get))
	}
	huge := append([]byte(nil), get...)
	binary.BigEndian.PutUint16(huge[len(huge)-2:], 0xffff)
	huge = append(huge, make([]byte, 10)...)
	if _, ok := decodeMessage(huge); ok {
		t.Fatal("accepted a value count of 65535 in a 40-byte message")
	}
	if allocs := testing.AllocsPerRun(100, func() { decodeMessage(huge) }); allocs != 0 {
		t.Fatalf("rejecting an oversized value count allocated %v times", allocs)
	}
	reply := messageBytes(everyOp()[3])
	for cut := 0; cut < len(reply); cut++ {
		if _, ok := decodeMessage(reply[:cut]); ok {
			t.Fatalf("accepted a message cut to %d of %d bytes", cut, len(reply))
		}
	}
	if _, ok := decodeMessage(append(append([]byte(nil), reply...), 0)); ok {
		t.Fatal("accepted a trailing byte")
	}
	for _, op := range []byte{0, opEnd, 'g', '{'} {
		bad := append([]byte(nil), get...)
		bad[0] = op
		if _, ok := decodeMessage(bad); ok {
			t.Fatalf("accepted op %d", op)
		}
	}
	bad := append([]byte(nil), get...)
	bad[1] = 2
	if _, ok := decodeMessage(bad); ok {
		t.Fatal("accepted an unknown flag")
	}
	long := append([]byte(nil), get...)
	binary.BigEndian.PutUint16(long[len(long)-4:], 9) // value length past the end
	if _, ok := decodeMessage(long); ok {
		t.Fatal("accepted a value length running past the message")
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the decoder every DHT message
// comes through: it must never panic, whatever it accepts must re-encode
// to exactly the input, and a store handed the bytes must survive them and
// keep answering lookups.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range everyOp() {
		f.Add(messageBytes(m))
	}
	reply := messageBytes(everyOp()[3])
	f.Add(reply[:len(reply)-3])
	f.Add([]byte{})
	f.Add([]byte(`{"op":"get","key":"00"}`)) // the parent's wire: rejected now
	f.Fuzz(func(t *testing.T, body []byte) {
		m, ok := decodeMessage(body)
		if ok && !bytes.Equal(appendMessage(nil, m), body) {
			t.Fatalf("accepted message does not re-encode to its input: %+v", m)
		}
		c, stores := newDHTCluster(t, 3, 1)
		key := overlay.HashID("fuzz-key")
		if err := stores[0].Put(key, []byte("kept")); err != nil {
			t.Fatal(err)
		}
		c.Sim.Run()
		for _, s := range stores {
			s.deliver(key, c.Nodes[1].Info(), body)
		}
		c.Sim.Run()
		found := false
		stores[2].Get(key, time.Second, func(vs [][]byte, err error) {
			for _, v := range vs {
				found = found || string(v) == "kept"
			}
		})
		c.Sim.Run()
		// A well-formed remove of the value is the one input allowed to lose it.
		if !found && !(ok && m.Key == key && string(m.Value) == "kept") {
			t.Fatal("store lost a value after a fuzzed message")
		}
	})
}

// Put and Remove return the typed refusal, Get reports it through its
// callback exactly once and leaves nothing pending.
func TestUnframeableRequestsAreRefused(t *testing.T) {
	long := strings.Repeat("c", 256)
	c := simnet.New(simnet.Options{N: 4, Seed: 1})
	c.Nodes[1].SetCluster(long) // after the joins: only node 1's own sends are affected
	s := New(c.Nodes[1], c.Clock)
	key := overlay.HashID("k")
	if err := s.Put(key, []byte("v")); !errors.Is(err, overlay.ErrDataNameTooLong) {
		t.Fatalf("Put from a node with a 256-byte cluster: err = %v", err)
	}
	if err := s.Remove(key, []byte("v")); !errors.Is(err, overlay.ErrDataNameTooLong) {
		t.Fatalf("Remove from a node with a 256-byte cluster: err = %v", err)
	}
	calls := 0
	var gotErr error
	s.Get(key, time.Second, func(_ [][]byte, err error) { calls++; gotErr = err })
	if calls != 1 || !errors.Is(gotErr, overlay.ErrDataNameTooLong) {
		t.Fatalf("Get: %d callbacks before returning, err = %v; want one ErrDataNameTooLong", calls, gotErr)
	}
	c.Sim.Run()
	if calls != 1 || len(s.pending) != 0 {
		t.Fatalf("Get: %d callbacks after the timeout window, %d pending", calls, len(s.pending))
	}
	ok := New(c.Nodes[2], c.Clock)
	if err := ok.Put(key, make([]byte, 0x10000)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("Put of a 65536-byte value: err = %v, want ErrValueTooLarge", err)
	}
	if err := ok.Put(key, make([]byte, 0xffff)); err != nil {
		t.Fatalf("Put of a 65535-byte value: %v", err)
	}
}

// recorder wraps an endpoint and shows every message it sends to seen.
type recorder struct {
	transport.Endpoint
	seen func(transport.Message)
}

func (r recorder) Send(to transport.Addr, msg transport.Message) error {
	r.seen(msg)
	return r.Endpoint.Send(to, msg)
}

// Wire-size pin: a routed DHT get, per hop, on the simulator's links
// (transport.Message.WireSize, nodes at sim://NN).
const maxRoutedGetWire = 180 // 501 as a JSON message in a JSON envelope

func TestRoutedGetWireSize(t *testing.T) {
	var routed []int
	recording := false
	c := simnet.New(simnet.Options{N: 32, Seed: 3,
		WrapEndpoint: func(_ int, ep transport.Endpoint, _ clock.Clock) transport.Endpoint {
			return recorder{Endpoint: ep, seen: func(m transport.Message) {
				if recording && m.Type == "overlay" {
					routed = append(routed, m.WireSize())
				}
			}}
		}})
	stores := make([]*Store, len(c.Nodes))
	for i, node := range c.Nodes {
		stores[i] = New(node, c.Clock)
	}
	recording = true
	for i := 10; i < 32; i++ { // origins with two-digit addresses
		stores[i].Get(overlay.HashID("svc:transcode"), time.Second, func([][]byte, error) {})
	}
	c.Sim.Run()
	// The window holds the gets, hop by hop, and the smaller acks of each hop.
	largest := 0
	for _, size := range routed {
		largest = max(largest, size)
	}
	if len(routed) < 22 || largest > maxRoutedGetWire {
		t.Fatalf("%d routed frames, the largest %d bytes on the wire; a routed get is pinned at most %d", len(routed), largest, maxRoutedGetWire)
	}
}
