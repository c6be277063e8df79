package transport

import (
	"net"
	"sync"
	"testing"
)

func newHybridPair(t *testing.T) (*HybridEndpoint, *HybridEndpoint) {
	t.Helper()
	a, err := NewHybrid("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHybrid("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestHybridControlOverTCP(t *testing.T) {
	a, b := newHybridPair(t)
	var mu sync.Mutex
	var got []Message
	b.SetHandler(func(from Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, msg)
	})
	for i := 0; i < 50; i++ {
		if err := a.Send(b.Addr(), Message{Type: "ctl", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 50
	})
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got { // TCP preserves order
		if m.Payload[0] != byte(i) {
			t.Fatalf("control message %d out of order", i)
		}
	}
}

func TestHybridDatagramOverUDP(t *testing.T) {
	a, b := newHybridPair(t)
	var mu sync.Mutex
	received := 0
	var from Addr
	b.SetHandler(func(f Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		if msg.Type == "data" && msg.Pad == 1000 {
			received++
			from = f
		}
	})
	for i := 0; i < 20; i++ {
		if err := a.Send(b.Addr(), Message{Type: "data", Datagram: true, Pad: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	// UDP on loopback is effectively lossless; expect most to arrive.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return received >= 15
	})
	mu.Lock()
	defer mu.Unlock()
	if from != a.Addr() {
		t.Fatalf("datagram source = %q, want %q", from, a.Addr())
	}
}

// A malformed datagram is skipped; the valid ones after it are delivered
// with their own payloads, although the receive buffer is reused.
func TestHybridSkipsMalformedDatagram(t *testing.T) {
	a, b := newHybridPair(t)
	var mu sync.Mutex
	var got []Message
	b.SetHandler(func(f Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, msg)
	})
	dst, err := net.ResolveUDPAddr("udp", string(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	valid := appendTCPFrame(nil, a.Addr(), Message{Type: "data", Datagram: true, Payload: []byte("x")})
	for _, bad := range [][]byte{{0xff, 0xff, 1, 2, 3}, valid[:len(valid)-1]} {
		if _, err := a.udp.WriteToUDP(bad, dst); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"first", "second"} {
		if err := a.Send(b.Addr(), Message{Type: "data", Datagram: true, Payload: []byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || string(got[0].Payload) != "first" || string(got[1].Payload) != "second" {
		t.Fatalf("delivered %+v, want exactly the two valid datagrams in order", got)
	}
}

func TestHybridOversizedDatagramFallsBackToTCP(t *testing.T) {
	a, b := newHybridPair(t)
	var mu sync.Mutex
	got := 0
	b.SetHandler(func(f Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		if msg.Type == "big" && len(msg.Payload) == 200_000 {
			got++
		}
	})
	big := Message{Type: "big", Datagram: true, Payload: make([]byte, 200_000)}
	if err := a.Send(b.Addr(), big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == 1
	})
}

func TestHybridClose(t *testing.T) {
	a, b := newHybridPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), Message{Type: "x"}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestHybridSharedPort(t *testing.T) {
	a, _ := newHybridPair(t)
	// TCP and UDP must share one advertised address.
	if a.Addr() == "" {
		t.Fatal("no address")
	}
	if a.tcp.Addr() != a.Addr() {
		t.Fatal("TCP address differs from advertised address")
	}
}
