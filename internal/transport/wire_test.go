package transport

import (
	"bytes"
	"testing"
)

func TestWireMessageRoundTrip(t *testing.T) {
	cases := []Message{
		{},
		{Type: "ping"},
		{Type: "data", Payload: []byte("hello"), Pad: 4096, Datagram: true},
		{Type: "big", Payload: bytes.Repeat([]byte{0xAB}, 70_000)},
	}
	for _, want := range cases {
		buf := appendMessage(nil, want)
		got, rest, err := readMessage(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %+v left %d trailing bytes", want, len(rest))
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) ||
			got.Pad != want.Pad || got.Datagram != want.Datagram {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestWireTCPFrameRoundTrip(t *testing.T) {
	msg := Message{Type: "rpc", Payload: []byte("body"), Pad: 7}
	buf := appendTCPFrame(nil, "10.0.0.1:9999", msg)
	from, got, err := readTCPFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != "10.0.0.1:9999" || got.Type != "rpc" || string(got.Payload) != "body" || got.Pad != 7 {
		t.Fatalf("round trip: from=%s msg=%+v", from, got)
	}
}

func TestWireTruncatedFrameRejected(t *testing.T) {
	full := appendTCPFrame(nil, "a:1", Message{Type: "x", Payload: []byte("yz")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := readTCPFrame(full[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	// Trailing garbage is as malformed as missing bytes.
	if _, _, err := readTCPFrame(append(append([]byte(nil), full...), 0x00)); err == nil {
		t.Fatal("frame with trailing bytes decoded cleanly")
	}
}

// wireSeeds are encoder output for the fuzz targets: empty and full
// fields, a datagram, a padded message.
var wireSeeds = []Message{
	{},
	{Type: "overlay-rpc", Payload: []byte{1, 2, 3}},
	{Type: "overlay-data", Payload: bytes.Repeat([]byte{0xAB}, 300), Pad: 1250, Datagram: true},
}

// sameMessage compares two decoded messages field by field (a nil and an
// empty payload are the same payload).
func sameMessage(a, b Message) bool {
	return a.Type == b.Type && bytes.Equal(a.Payload, b.Payload) && a.Pad == b.Pad && a.Datagram == b.Datagram
}

// canonical returns the bytes of msgs as b holds them from offset off on,
// with the flag bits no encoder writes cleared: what the encoder must
// reproduce from the decoded messages.
func canonical(b []byte, off int, msgs []Message) []byte {
	out := append([]byte(nil), b...)
	for _, m := range msgs {
		off += 2 + len(m.Type) + 4 + len(m.Payload) + 4 + 1
		out[off-1] &= flagDatagram
	}
	return out[:off]
}

// FuzzReadTCPFrame feeds arbitrary bytes to the decoder of every frame a
// TCP peer sends. It must not panic; what it returns must fit in the input
// (nothing is sized from a length before the length is checked: the payload
// aliases the input and only the two names are copied); and a frame it
// accepts must re-encode to exactly its input, reserved flag bits aside, so
// whatever appendTCPFrame produces round-trips.
func FuzzReadTCPFrame(f *testing.F) {
	for _, m := range wireSeeds {
		b := appendTCPFrame(nil, "127.0.0.1:4000", m)
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		from, msg, err := readTCPFrame(b)
		if err != nil {
			return
		}
		if n := len(from) + len(msg.Type) + len(msg.Payload); n > len(b) {
			t.Fatalf("decoded %d bytes of names and payload from a %d-byte frame", n, len(b))
		}
		re := appendTCPFrame(nil, from, msg)
		if want := canonical(b, 2+len(from), []Message{msg}); !bytes.Equal(re, want) {
			t.Fatalf("accepted frame does not re-encode to its input:\n in  %x\n out %x", want, re)
		}
		from2, msg2, err := readTCPFrame(re)
		if err != nil || from2 != from || !sameMessage(msg2, msg) {
			t.Fatalf("re-encoded frame decodes to %q %+v (%v), want %q %+v", from2, msg2, err, from, msg)
		}
	})
}

// FuzzReadBatch feeds arbitrary bytes to the unpacker of the resilient
// pipeline's batch envelope. It must not panic, must deliver no more than
// the input holds, and the messages it delivers (the intact prefix) must
// re-encode to exactly that prefix, reserved flag bits aside.
func FuzzReadBatch(f *testing.F) {
	var ctrl []queuedMsg
	for _, m := range wireSeeds {
		ctrl = append(ctrl, queuedMsg{msg: m})
	}
	whole := appendBatch(nil, ctrl)
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(append(whole[:len(whole):len(whole)], 0))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		var got []Message
		size := 0
		readBatch(b, func(m Message) {
			got = append(got, m)
			size += len(m.Type) + len(m.Payload)
		})
		if size > len(b) {
			t.Fatalf("delivered %d bytes of types and payloads from a %d-byte envelope", size, len(b))
		}
		var again []queuedMsg
		for _, m := range got {
			again = append(again, queuedMsg{msg: m})
		}
		re := appendBatch(nil, again)
		if want := canonical(b, 0, got); !bytes.Equal(re, want) {
			t.Fatalf("delivered messages do not re-encode to the prefix they came from:\n in  %x\n out %x", want, re)
		}
	})
}

func TestWireBatchRoundTrip(t *testing.T) {
	ctrl := []queuedMsg{
		{msg: Message{Type: "a", Payload: []byte("1")}},
		{msg: Message{Type: "b", Pad: 10}},
		{msg: Message{Type: "c", Payload: []byte("333"), Datagram: true}},
	}
	var got []Message
	readBatch(appendBatch(nil, ctrl), func(m Message) { got = append(got, m) })
	if len(got) != len(ctrl) {
		t.Fatalf("unpacked %d messages, want %d", len(got), len(ctrl))
	}
	for i, m := range got {
		w := ctrl[i].msg
		if m.Type != w.Type || !bytes.Equal(m.Payload, w.Payload) || m.Pad != w.Pad || m.Datagram != w.Datagram {
			t.Fatalf("batch[%d]: got %+v, want %+v", i, m, w)
		}
	}
}
