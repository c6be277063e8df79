package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func newTCPPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// waitFor polls until cond() is true or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestTCPSendReceive(t *testing.T) {
	a, b := newTCPPair(t)
	var mu sync.Mutex
	var gotFrom Addr
	var gotMsg Message
	b.SetHandler(func(from Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		gotFrom, gotMsg = from, msg
	})
	if err := a.Send(b.Addr(), Message{Type: "ping", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotMsg.Type == "ping"
	})
	mu.Lock()
	defer mu.Unlock()
	if gotFrom != a.Addr() {
		t.Fatalf("from = %q, want %q", gotFrom, a.Addr())
	}
	if string(gotMsg.Payload) != "hello" {
		t.Fatalf("payload = %q", gotMsg.Payload)
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := newTCPPair(t)
	var mu sync.Mutex
	received := map[string]bool{}
	record := func(name string) Handler {
		return func(from Addr, msg Message) {
			mu.Lock()
			defer mu.Unlock()
			received[name+":"+msg.Type] = true
		}
	}
	a.SetHandler(record("a"))
	b.SetHandler(record("b"))
	if err := a.Send(b.Addr(), Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.Addr(), Message{Type: "y"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return received["b:x"] && received["a:y"]
	})
}

func TestTCPManyMessagesInOrder(t *testing.T) {
	a, b := newTCPPair(t)
	var mu sync.Mutex
	var got []string
	b.SetHandler(func(from Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, msg.Type)
	})
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), Message{Type: string(rune('a' + i%26))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, typ := range got {
		if typ != string(rune('a'+i%26)) {
			t.Fatalf("message %d out of order: %q", i, typ)
		}
	}
}

func TestTCPSendToDeadAddress(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send("127.0.0.1:1", Message{Type: "x"}); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestTCPClosedEndpointSendFails(t *testing.T) {
	a, b := newTCPPair(t)
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

func TestTCPLargePayload(t *testing.T) {
	a, b := newTCPPair(t)
	var mu sync.Mutex
	var got int
	b.SetHandler(func(from Addr, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		got = len(msg.Payload)
	})
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(b.Addr(), Message{Type: "big", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == 1<<20
	})
}

// A Close that lands while Send is dialing must not hang: the connection
// the dial returns after Close has swept the tables is closed on the spot,
// not registered with a read loop nobody will ever stop. The dial is parked
// across the Close; a handler still running keeps Close inside its wait
// while the dial completes, which is the window the old code hung in.
func TestTCPCloseDuringDialReturns(t *testing.T) {
	a, b := newTCPPair(t)
	late, err := NewTCP("127.0.0.1:0") // the peer a is dialing when Close lands
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()

	inHandler, releaseHandler := make(chan struct{}), make(chan struct{})
	a.SetHandler(func(Addr, Message) {
		close(inHandler)
		<-releaseHandler
	})
	if err := b.Send(a.Addr(), Message{Type: "hold"}); err != nil {
		t.Fatal(err)
	}
	<-inHandler

	dialing, releaseDial := make(chan struct{}), make(chan struct{})
	a.dial = func(network, address string) (net.Conn, error) {
		close(dialing)
		<-releaseDial
		return net.Dial(network, address)
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send(late.Addr(), Message{Type: "ping"}) }()
	<-dialing

	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	waitFor(t, func() bool { // Close has swept the tables and is waiting on the handler's read loop
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.closed
	})
	close(releaseDial)
	if err := <-sent; !errors.Is(err, ErrClosed) {
		t.Errorf("Send across a Close: err = %v, want ErrClosed", err)
	}
	close(releaseHandler)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: a connection dialed across it is still being read")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.allConns) != 0 {
		t.Fatalf("%d connections registered on a closed endpoint", len(a.allConns))
	}
}
