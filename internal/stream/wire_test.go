package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/dht"
	"rasc.dev/rasc/internal/discovery"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/transport"
)

// instantiateBytes builds the instantiate body by hand from the documented
// layout, so the tests do not check the encoder against itself.
func instantiateBytes(m instantiateMsg) []byte {
	str := func(b []byte, s string) []byte { return append(append(b, byte(len(s))), s...) }
	b := str(nil, m.Req)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Substream))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Stage))
	b = str(b, m.Service)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Rate))
	b = binary.BigEndian.AppendUint32(b, uint32(m.UnitBytes))
	b = binary.BigEndian.AppendUint64(b, uint64(m.ProcHint))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.RateRatio))
	b = binary.BigEndian.AppendUint32(b, uint32(m.BytesOut))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Outs)))
	for _, o := range m.Outs {
		b = str(b, string(o.To.Addr))
		b = append(b, o.To.ID[:]...)
		b = str(b, o.To.Cluster)
		b = binary.BigEndian.AppendUint32(b, uint32(o.ToStage))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(o.Rate))
	}
	return b
}

// fullInstantiate populates every field, with two targets: one in a flat
// deployment's form, one carrying a cluster.
func fullInstantiate() instantiateMsg {
	return instantiateMsg{
		Req: "app-7", Substream: 1, Stage: 2, Service: "transcode",
		Rate: 12.5, UnitBytes: 1250, ProcHint: 3 * time.Millisecond, RateRatio: 0.5, BytesOut: 625,
		Outs: []outSpec{
			{To: overlay.NodeInfo{ID: overlay.HashID("out-a"), Addr: "sim://17"}, ToStage: 3, Rate: 7.5},
			{To: overlay.NodeInfo{ID: overlay.HashID("out-b"), Addr: "sim://23", Cluster: "c1"}, ToStage: 3, Rate: 5},
		},
	}
}

func TestInstantiateRoundTripsEveryField(t *testing.T) {
	long := strings.Repeat("n", 256)
	edge := overlay.NodeInfo{ID: overlay.HashID("edge"), Addr: transport.Addr(long[:255]), Cluster: long[:255]}
	for name, m := range map[string]instantiateMsg{
		"full":       fullInstantiate(),
		"least rate": {Rate: math.SmallestNonzeroFloat64, RateRatio: spec.MaxRateRatio},
		"no outs":    {Req: "r", Service: "filter", Rate: 10, RateRatio: 1},
		"255 bytes":  {Req: long[:255], Service: long[:255], Rate: 1, RateRatio: 1, Outs: []outSpec{{To: edge}}},
	} {
		b, err := appendInstantiate(nil, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(b, instantiateBytes(m)) {
			t.Fatalf("%s: encoder departs from the documented layout:\n got %x\nwant %x", name, b, instantiateBytes(m))
		}
		got, ok := parseInstantiate(b)
		if !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: round trip: ok=%v\n got %+v\nwant %+v", name, ok, got, m)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, ok := parseInstantiate(b[:cut]); ok {
				t.Fatalf("%s: accepted a body cut to %d of %d bytes", name, cut, len(b))
			}
		}
		if _, ok := parseInstantiate(append(b, 0)); ok {
			t.Fatalf("%s: accepted a trailing byte", name)
		}
	}
	longAddr, longCluster := edge, edge
	longAddr.Addr, longCluster.Cluster = transport.Addr(long), long
	for name, tc := range map[string]struct {
		m    instantiateMsg
		want error
	}{
		"request ID":  {instantiateMsg{Req: long}, spec.ErrRequestIDTooLong},
		"service":     {instantiateMsg{Service: long}, overlay.ErrDataNameTooLong},
		"out address": {instantiateMsg{Outs: []outSpec{{To: edge}, {To: longAddr}}}, overlay.ErrDataNameTooLong},
		"out cluster": {instantiateMsg{Outs: []outSpec{{To: longCluster}}}, overlay.ErrDataNameTooLong},
	} {
		if _, err := appendInstantiate(nil, tc.m); !errors.Is(err, tc.want) {
			t.Fatalf("256-byte %s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// A host refuses an instantiate whose rates a component cannot run with.
// An infinite rate ratio with one positive out would otherwise hang the
// shard in forward's credit loop on the first unit, since Inf-1 is Inf.
func TestInstantiateWithUnrunnableRatesIsRefused(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for name, mutate := range map[string]func(*instantiateMsg){
		"infinite ratio":    func(m *instantiateMsg) { m.RateRatio = inf },
		"ratio above bound": func(m *instantiateMsg) { m.RateRatio = 2 * spec.MaxRateRatio },
		"NaN ratio":         func(m *instantiateMsg) { m.RateRatio = nan },
		"zero ratio":        func(m *instantiateMsg) { m.RateRatio = 0 },
		"negative ratio":    func(m *instantiateMsg) { m.RateRatio = -1 },
		"infinite rate":     func(m *instantiateMsg) { m.Rate = inf },
		"NaN rate":          func(m *instantiateMsg) { m.Rate = nan },
		"zero rate":         func(m *instantiateMsg) { m.Rate = 0 },
		"negative out":      func(m *instantiateMsg) { m.Outs[1].Rate = -1 },
		"infinite out":      func(m *instantiateMsg) { m.Outs[0].Rate = inf },
		"NaN out":           func(m *instantiateMsg) { m.Outs[0].Rate = nan },
	} {
		m := fullInstantiate()
		m.Outs = m.Outs[:1:1]
		m.Outs = append(m.Outs, outSpec{To: m.Outs[0].To, ToStage: 3, Rate: 0})
		mutate(&m)
		e := newStubEngine(&testClock{}, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
		var refusal string
		e.onInstantiate(stubPeer, instantiateBytes(m), func(_ []byte, errText string) { refusal = errText })
		if refusal != "stream: bad instantiate" || e.Components() != 0 {
			t.Fatalf("%s: answered %q with %d components", name, refusal, e.Components())
		}
	}
	if _, ok := parseInstantiate(instantiateBytes(fullInstantiate())); !ok {
		t.Fatal("the well-formed body was refused")
	}
}

// An out count is checked against the bytes that remain before anything is
// allocated for it.
func TestParseInstantiateBoundsOutCount(t *testing.T) {
	b := instantiateBytes(instantiateMsg{Req: "r", Service: "filter", Rate: 1, RateRatio: 1})
	binary.BigEndian.PutUint32(b[len(b)-4:], 0xffffffff)
	b = append(b, make([]byte, 40)...)
	if _, ok := parseInstantiate(b); ok {
		t.Fatal("accepted an out count of 4294967295 with 40 bytes left")
	}
	if allocs := testing.AllocsPerRun(100, func() { parseInstantiate(b) }); allocs > 2 { // the two names
		t.Fatalf("rejecting an oversized out count allocated %v times", allocs)
	}
}

func TestTeardownBodyRoundTrips(t *testing.T) {
	for _, req := range []string{"", "app-7", strings.Repeat("r", 255)} {
		b, err := appendRequestID(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := parseTeardown(b); !ok || got != req {
			t.Fatalf("%d-byte request ID came back as %q, ok=%v", len(req), got, ok)
		}
		if _, ok := parseTeardown(append(b, 0)); ok {
			t.Fatal("accepted a trailing byte")
		}
		if _, ok := parseTeardown(b[:len(b)/2]); ok && len(b) > 1 {
			t.Fatal("accepted a cut body")
		}
	}
	if _, ok := parseTeardown(nil); ok {
		t.Fatal("accepted an empty body")
	}
}

// FuzzParseInstantiate feeds arbitrary bytes to the decoders of the two RPC
// bodies a host acts on: they must never panic, whatever the instantiate
// decoder accepts must re-encode to exactly the input, and an engine handed
// the bytes as either RPC must answer once and go on serving.
func FuzzParseInstantiate(f *testing.F) {
	whole := instantiateBytes(fullInstantiate())
	f.Add(whole)
	f.Add(whole[:len(whole)-9]) // last out cut short
	f.Add(instantiateBytes(instantiateMsg{}))
	f.Add([]byte{5, 'a', 'p', 'p', '-', '7'}) // a teardown body
	f.Add([]byte{})
	f.Add([]byte(`{"req":"app-7","service":"filter","rate":10}`)) // the parent's wire: rejected now
	f.Fuzz(func(t *testing.T, body []byte) {
		m, ok := parseInstantiate(body)
		if ok && !spec.ValidRateRatio(m.RateRatio) {
			t.Fatalf("accepted rate ratio %g outside (0, %d]", m.RateRatio, spec.MaxRateRatio)
		}
		if ok {
			back, err := appendInstantiate(nil, m)
			if err != nil || !bytes.Equal(back, body) {
				t.Fatalf("accepted body does not re-encode to its input (%v): %+v", err, m)
			}
		}
		e := newStubEngine(&testClock{}, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
		answers := 0
		var refusal string
		e.onInstantiate(stubPeer, body, func(_ []byte, errText string) { answers++; refusal = errText })
		if answers != 1 || (refusal == "") != ok || e.Components() > 1 {
			t.Fatalf("instantiate answered %d times with %q for a body with ok = %v; %d components", answers, refusal, ok, e.Components())
		}
		e.onTeardown(stubPeer, body, func([]byte, string) { answers++ })
		if answers != 2 {
			t.Fatalf("teardown answered %d times", answers-1)
		}
	})
}

// Wire-size pin: an instantiate with two targets, as the RPC a host
// receives on the simulator's links (transport.Message.WireSize, every
// node at sim://NN).
const maxInstantiateWire = 260 // about 400 as a JSON body

func TestInstantiateWireSize(t *testing.T) {
	clk := &testClock{}
	ep := &stubEndpoint{addr: "sim://12"}
	e := newStubEngine(clk, ep, DataPlaneConfig{})
	body, err := appendInstantiate(nil, fullInstantiate())
	if err != nil {
		t.Fatal(err)
	}
	e.node.Request("sim://17", appInstantiate, body, time.Second, func([]byte, error) {})
	if len(ep.sent) != 1 {
		t.Fatalf("%d messages sent", len(ep.sent))
	}
	if got := ep.sent[0].WireSize(); got > maxInstantiateWire {
		t.Fatalf("an instantiate with two outs is %d bytes on the wire, pinned at most %d", got, maxInstantiateWire)
	}
}

// Five services looked up at once through the real directory: every reply
// (and the route ack ahead of it) queues on the origin's 150 kbps downlink,
// so the gather lasts one round trip plus the inbound bytes at link speed —
// and the bytes are what the discovery and overlay wire-size pins allow.
func TestGatherOverThinDownlinkLastsWhatTheBytesCost(t *testing.T) {
	const (
		hop       = 10 * time.Millisecond
		downBps   = 150e3
		providers = 16
		// Per service: one lookup reply and one route ack, at their pins
		// (discovery.maxLookupReplyWire, overlay.maxRouteAckWire).
		maxInbound = 5 * (800 + 100)
	)
	r := newRig(t, 1+providers, func(a, b netsim.NodeID) time.Duration { return hop }, downBps, Config{})
	clk := r.engines[0].clk
	services := []string{"a", "b", "c", "d", "e"}
	for i, e := range r.engines {
		for _, peer := range r.infos {
			e.node.AddPeer(peer) // full mesh: every route is one hop
		}
		dir := discovery.New(e.node, dht.New(e.node, clk), clk)
		if i == 0 {
			e.Dir = dir
			continue
		}
		for _, svc := range services {
			if err := dir.Announce(svc); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.engines[0].SetStatsProvider(func(overlay.ID) (monitor.Report, bool) {
		return monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8}, true // no stats round trips: the lookups alone are timed
	})
	r.sim.Run()
	start, before := r.sim.Now(), r.nw.BytesReceived(0)
	res := r.gather(gatherRequest("thin", services...), 5*time.Second)
	r.sim.Run()
	if res.calls != 1 || res.err != nil {
		t.Fatalf("%d callbacks, err = %v", res.calls, res.err)
	}
	for _, svc := range services {
		if got := len(res.in.Candidates[svc]); got != providers {
			t.Fatalf("%s: %d candidates, want %d", svc, got, providers)
		}
	}
	inbound := r.nw.BytesReceived(0) - before
	if inbound > maxInbound {
		t.Fatalf("the gather brought %d bytes down the origin's link, the pins allow %d", inbound, maxInbound)
	}
	took := res.at - start
	want := 2*hop + time.Duration(float64(inbound)*8/downBps*float64(time.Second))
	if !near(took, want) {
		t.Fatalf("gather took %v; one round trip plus %d inbound bytes at 150 kbps is %v", took, inbound, want)
	}
}
