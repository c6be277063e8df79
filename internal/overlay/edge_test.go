package overlay

import (
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/transport"
)

func twoNodes(t *testing.T) (*Node, *Node, *netsim.Simulator) {
	t.Helper()
	sim := netsim.New(1)
	nw := netsim.NewNetwork(sim, netsim.Config{
		Latency: func(a, b netsim.NodeID) time.Duration { return 5 * time.Millisecond },
	})
	mem := transport.NewMemNetwork(nw)
	clk := clock.Sim{S: sim}
	a := NewNode(HashID("edge-a"), mem.Endpoint(nw.AddNode(1e8, 1e8)), clk)
	b := NewNode(HashID("edge-b"), mem.Endpoint(nw.AddNode(1e8, 1e8)), clk)
	return a, b, sim
}

func TestJoinTwiceIsHarmless(t *testing.T) {
	a, b, sim := twoNodes(t)
	a.Bootstrap()
	calls := 0
	b.Join(a.Addr(), func() { calls++ })
	sim.Run()
	b.Join(a.Addr(), func() { calls++ })
	sim.Run()
	if calls != 2 {
		t.Fatalf("join callbacks = %d, want 2", calls)
	}
	if !b.Joined() {
		t.Fatal("not joined after double join")
	}
}

func TestBootstrapThenRouteSelf(t *testing.T) {
	a, _, sim := twoNodes(t)
	a.Bootstrap()
	got := false
	a.Register("self", func(ID, NodeInfo, []byte) { got = true })
	a.Route(HashID("any-key"), "self", nil)
	sim.Run()
	if !got {
		t.Fatal("single-node overlay did not deliver to itself")
	}
}

func TestRequestToSelf(t *testing.T) {
	a, _, sim := twoNodes(t)
	a.Bootstrap()
	a.RegisterRequest("echo", func(_ NodeInfo, body []byte, respond func([]byte, string)) {
		respond(body, "")
	})
	var got []byte
	a.Request(a.Addr(), "echo", []byte("loop"), time.Second, func(b []byte, err error) {
		if err != nil {
			t.Errorf("self request: %v", err)
		}
		got = b
	})
	sim.Run()
	if string(got) != "loop" {
		t.Fatalf("got %q", got)
	}
}

func TestHandlerRespondTwiceIgnored(t *testing.T) {
	a, b, sim := twoNodes(t)
	a.Bootstrap()
	b.Join(a.Addr(), nil)
	sim.Run()
	b.RegisterRequest("dup", func(_ NodeInfo, _ []byte, respond func([]byte, string)) {
		respond([]byte("first"), "")
		respond([]byte("second"), "") // must be swallowed
	})
	calls := 0
	var got []byte
	a.Request(b.Addr(), "dup", nil, time.Second, func(body []byte, err error) {
		calls++
		got = body
	})
	sim.Run()
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
	if string(got) != "first" {
		t.Fatalf("got %q", got)
	}
}

func TestMonitorReportJSONRoundTrip(t *testing.T) {
	// The stats RPC ships monitor.Report as JSON; spot-check through the
	// overlay request path that arbitrary bodies survive.
	a, b, sim := twoNodes(t)
	a.Bootstrap()
	b.Join(a.Addr(), nil)
	sim.Run()
	payload := []byte(`{"at":123,"inBpsCap":1000000,"components":{"c1":{"service":"filter"}}}`)
	b.RegisterRequest("stats-like", func(_ NodeInfo, _ []byte, respond func([]byte, string)) {
		respond(payload, "")
	})
	var got []byte
	a.Request(b.Addr(), "stats-like", nil, time.Second, func(body []byte, err error) { got = body })
	sim.Run()
	if string(got) != string(payload) {
		t.Fatalf("payload mangled: %s", got)
	}
}
