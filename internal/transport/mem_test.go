package transport

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/netsim"
)

func newTestNet(t *testing.T, n int) (*netsim.Simulator, *MemNetwork, []Endpoint) {
	t.Helper()
	sim := netsim.New(1)
	nw := netsim.NewNetwork(sim, netsim.Config{
		Latency: func(a, b netsim.NodeID) time.Duration { return 5 * time.Millisecond },
	})
	mem := NewMemNetwork(nw)
	eps := make([]Endpoint, n)
	for i := 0; i < n; i++ {
		id := nw.AddNode(1e7, 1e7)
		eps[i] = mem.Endpoint(id)
	}
	return sim, mem, eps
}

func TestMemSendReceive(t *testing.T) {
	sim, _, eps := newTestNet(t, 2)
	var gotFrom Addr
	var gotMsg Message
	eps[1].SetHandler(func(from Addr, msg Message) { gotFrom, gotMsg = from, msg })
	if err := eps[0].Send(eps[1].Addr(), Message{Type: "ping", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if gotFrom != eps[0].Addr() {
		t.Fatalf("from = %q, want %q", gotFrom, eps[0].Addr())
	}
	if gotMsg.Type != "ping" || string(gotMsg.Payload) != "x" {
		t.Fatalf("msg = %+v", gotMsg)
	}
}

func TestMemUnknownAddr(t *testing.T) {
	_, _, eps := newTestNet(t, 1)
	err := eps[0].Send("sim://99", Message{Type: "x"})
	if err == nil {
		t.Fatal("expected error for unknown address")
	}
}

func TestMemClosedEndpoint(t *testing.T) {
	sim, _, eps := newTestNet(t, 2)
	received := 0
	eps[1].SetHandler(func(Addr, Message) { received++ })
	if err := eps[1].Close(); err != nil {
		t.Fatal(err)
	}
	// Send to the closed endpoint fails to resolve.
	if err := eps[0].Send(eps[1].Addr(), Message{Type: "x"}); err == nil {
		t.Fatal("expected error sending to closed endpoint")
	}
	// Send from the closed endpoint fails immediately.
	if err := eps[1].Send(eps[0].Addr(), Message{Type: "x"}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	sim.Run()
	if received != 0 {
		t.Fatalf("closed endpoint received %d messages", received)
	}
}

func TestMemAddrFormat(t *testing.T) {
	if MemAddr(7) != "sim://7" {
		t.Fatalf("MemAddr(7) = %q", MemAddr(7))
	}
}

func TestWireSizeMonotonic(t *testing.T) {
	small := Message{Type: "a", Payload: make([]byte, 10)}
	big := Message{Type: "a", Payload: make([]byte, 1000)}
	if small.WireSize() >= big.WireSize() {
		t.Fatal("WireSize not monotonic in payload length")
	}
	if small.WireSize() <= len(small.Payload) {
		t.Fatal("WireSize must include header overhead")
	}
}

// Binding a node again replaces its endpoint; closing the replaced one
// afterwards must not unbind the replacement.
func TestMemCloseKeepsReplacement(t *testing.T) {
	sim := netsim.New(1)
	nw := netsim.NewNetwork(sim, netsim.Config{})
	mem := NewMemNetwork(nw)
	sender := mem.Endpoint(nw.AddNode(1e7, 1e7))
	id := nw.AddNode(1e7, 1e7)
	old := mem.Endpoint(id)
	repl := mem.Endpoint(id)
	received := 0
	repl.SetHandler(func(Addr, Message) { received++ })
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(repl.Addr(), Message{Type: "x"}); err != nil {
		t.Fatalf("send to the replacement after closing the replaced endpoint: %v", err)
	}
	sim.Run()
	if received != 1 {
		t.Fatalf("replacement received %d messages, want 1", received)
	}
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(repl.Addr(), Message{Type: "x"}); err == nil {
		t.Fatal("send to a closed endpoint resolved")
	}
}

// Only the canonical spelling of a bound node's address resolves.
func TestMemAddrResolution(t *testing.T) {
	_, _, eps := newTestNet(t, 12)
	for _, to := range []Addr{"sim://", "sim://012", "sim://-1", "sim://1x", "sim:/1", "tcp://1", "sim://99", "sim://99999999999999999999999"} {
		if err := eps[0].Send(to, Message{Type: "x"}); err == nil {
			t.Errorf("Send(%q) resolved", to)
		}
	}
	if err := eps[0].Send("sim://11", Message{Type: "x"}); err != nil {
		t.Errorf("Send(sim://11): %v", err)
	}
}

// A steady-state send and its delivery allocate nothing: the envelope is
// pooled and rides the network by pointer.
func TestMemSendDoesNotAllocate(t *testing.T) {
	sim, _, eps := newTestNet(t, 2)
	got := 0
	eps[1].SetHandler(func(Addr, Message) { got++ })
	msg := Message{Type: "x", Payload: make([]byte, 64), Pad: 1000, Datagram: true}
	to := eps[1].Addr()
	burst := func() {
		for i := 0; i < 8; i++ {
			_ = eps[0].Send(to, msg)
		}
		sim.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
		t.Fatalf("a burst of sends and deliveries allocates %v times, want 0", allocs)
	}
	if got != 8*1002 {
		t.Fatalf("delivered %d messages, want %d", got, 8*1002)
	}
}
