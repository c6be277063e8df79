package rasc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
)

// TestNewFunctionalOptions checks that New applies options and that the
// functional path builds the exact deployment the deprecated Options shim
// builds: same seed, same placement, same delivery statistics.
func TestNewFunctionalOptions(t *testing.T) {
	sys := New(WithNodes(12), WithSeed(9), WithServicesPerNode(4), WithSchedPolicy("edf"))
	if sys.Nodes() != 12 {
		t.Fatalf("Nodes = %d, want 12", sys.Nodes())
	}
	for i := 0; i < sys.Nodes(); i++ {
		if len(sys.ServicesAt(i)) != 4 {
			t.Fatalf("node %d offers %d services, want 4", i, len(sys.ServicesAt(i)))
		}
	}

	run := func(sys *System) DeliveryStats {
		req := Request{
			ID:         "equiv",
			UnitBytes:  1250,
			Substreams: []Substream{{Services: []string{"filter"}, Rate: 6}},
		}
		comp, err := sys.Submit(1, req, ComposerMinCost)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(5 * time.Second)
		return comp.Stats()
	}
	a := run(New(WithNodes(12), WithSeed(77)))
	b := run(NewSimulated(Options{Nodes: 12, Seed: 77}))
	if a != b {
		t.Fatalf("New and NewSimulated diverged on the same seed:\n%+v\n%+v", a, b)
	}
}

func TestParseComposerRoundTrip(t *testing.T) {
	for _, c := range Composers() {
		got, err := ParseComposer(c.String())
		if err != nil {
			t.Fatalf("ParseComposer(%q): %v", c, err)
		}
		if got != c {
			t.Fatalf("round trip %q -> %q", c, got)
		}
	}
	if _, err := ParseComposer("nonsense"); !errors.Is(err, ErrUnknownComposer) {
		t.Fatalf("err = %v, want ErrUnknownComposer", err)
	}
}

// TestSubmitSentinelErrors checks that each failure mode surfaces its
// sentinel through errors.Is, and that wrapping preserves the underlying
// solver error chain.
func TestSubmitSentinelErrors(t *testing.T) {
	sys := New(WithNodes(8), WithSeed(4))
	req := Request{
		ID:         "r",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter"}, Rate: 5}},
	}
	if _, err := sys.Submit(0, req, Composer("nonsense")); !errors.Is(err, ErrUnknownComposer) {
		t.Fatalf("err = %v, want ErrUnknownComposer", err)
	}
	bad := req
	bad.Substreams = []Substream{{Services: []string{"no-such-service"}, Rate: 5}}
	if _, err := sys.Submit(0, bad, ComposerMinCost); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v, want ErrUnknownService", err)
	}
	long := req
	long.ID = strings.Repeat("x", 256)
	if _, err := sys.Submit(0, long, ComposerMinCost); !errors.Is(err, ErrRequestIDTooLong) {
		t.Fatalf("err = %v, want ErrRequestIDTooLong", err)
	}
	huge := req
	huge.Substreams = []Substream{{Services: []string{"filter"}, Rate: 100000}}
	_, err := sys.Submit(0, huge, ComposerMinCost)
	if !errors.Is(err, ErrNoComposition) {
		t.Fatalf("err = %v, want ErrNoComposition", err)
	}
	if !errors.Is(err, core.ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v lost the underlying ErrNoFeasiblePlacement chain", err)
	}
}

// failingDirectory answers every lookup with its error.
type failingDirectory struct{ err error }

func (d failingDirectory) Lookup(_ string, _ time.Duration, cb func([]overlay.NodeInfo, error)) {
	cb(nil, d.err)
}

// The submit path's own failures surface as sentinels too, one test each,
// with the cause still matchable through them.
func TestSubmitErrNoDirectory(t *testing.T) {
	sys := New(WithNodes(8), WithSeed(4))
	sys.d.Engines[0].Dir = nil // a pure worker node
	if _, err := sys.Submit(0, sentinelRequest(), ComposerMinCost); !errors.Is(err, ErrNoDirectory) {
		t.Fatalf("err = %v, want ErrNoDirectory", err)
	}
}

func TestSubmitErrDiscovery(t *testing.T) {
	sys := New(WithNodes(8), WithSeed(4))
	cause := errors.New("dht: get timed out")
	sys.d.Engines[0].Dir = failingDirectory{cause}
	_, err := sys.Submit(0, sentinelRequest(), ComposerMinCost)
	if !errors.Is(err, ErrDiscovery) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want ErrDiscovery wrapping %v", err, cause)
	}
}

func TestSubmitErrInstantiation(t *testing.T) {
	sys := New(WithNodes(8), WithSeed(4))
	for _, n := range sys.d.Nodes {
		n.RegisterRequest("stream-instantiate", func(_ overlay.NodeInfo, _ []byte, respond func([]byte, string)) {
			respond(nil, "host is draining")
		})
	}
	_, err := sys.Submit(0, sentinelRequest(), ComposerMinCost)
	if !errors.Is(err, ErrInstantiation) || !strings.Contains(err.Error(), "host is draining") {
		t.Fatalf("err = %v, want ErrInstantiation carrying the host's answer", err)
	}
	for i, e := range sys.d.Engines {
		if e.Components() != 0 || e.ActiveRequests() != 0 {
			t.Fatalf("engine %d kept state after the rollback", i)
		}
	}
}

func sentinelRequest() Request {
	return Request{ID: "sentinel", UnitBytes: 1250, Substreams: []Substream{{Services: []string{"filter"}, Rate: 5}}}
}

func TestSubmitContextCanceled(t *testing.T) {
	sys := New(WithNodes(8), WithSeed(4))
	req := Request{
		ID:         "ctx",
		UnitBytes:  1250,
		Substreams: []Substream{{Services: []string{"filter"}, Rate: 5}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.SubmitContext(ctx, 0, req, ComposerMinCost); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// An unconstrained context behaves exactly like Submit.
	if _, err := sys.SubmitContext(context.Background(), 0, req, ComposerMinCost); err != nil {
		t.Fatal(err)
	}
}

// TestWithChaos checks that a chaotic deployment still composes and
// streams, stays deterministic under the same seed, and that the
// partition helpers require WithChaos.
func TestWithChaos(t *testing.T) {
	run := func() DeliveryStats {
		sys := New(WithNodes(10), WithSeed(6), WithChaos(ChaosConfig{Drop: 0.02, SilentDrop: true}))
		req := Request{
			ID:         "chaotic",
			UnitBytes:  1250,
			Substreams: []Substream{{Services: []string{"filter"}, Rate: 5}},
		}
		comp, err := sys.Submit(0, req, ComposerMinCost)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(5 * time.Second)
		return comp.Stats()
	}
	a := run()
	if a.Received == 0 {
		t.Fatal("nothing delivered through 2% chaos drop")
	}
	if b := run(); a != b {
		t.Fatalf("chaotic deployment diverged on the same seed:\n%+v\n%+v", a, b)
	}

	sys := New(WithNodes(4), WithSeed(1), WithChaos(ChaosConfig{}))
	sys.Partition(0, 1)
	sys.Heal(0, 1)
	sys.Partition(0, 2)
	sys.HealAll()

	plain := New(WithNodes(4), WithSeed(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Partition without WithChaos did not panic")
		}
	}()
	plain.Partition(0, 1)
}
