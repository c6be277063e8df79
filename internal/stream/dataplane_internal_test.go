package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/transport"
)

// testClock is a manually advanced clock.Clock for exercising the batcher's
// flush-deadline timers, the source loop and the shards without a
// simulator.
type testClock struct {
	now    time.Duration
	timers []*testTimer
	// asked records the wait of every timer armed, in arming order.
	asked []time.Duration
	// lag makes every timer fire this much later than asked, the way a
	// wall clock's timers do under load.
	lag time.Duration
	// res is the clock's resolution: a timer asked for a positive wait
	// shorter than res fires res after it was armed, the way a wall clock's
	// timers wait for the next tick (a zero wait fires at once).
	res time.Duration
}

type testTimer struct {
	at      time.Duration
	fn      func()
	stopped bool
}

func (c *testClock) Now() time.Duration { return c.now }

func (c *testClock) Resolution() time.Duration { return c.res }

func (c *testClock) After(d time.Duration, fn func()) clock.Timer {
	c.asked = append(c.asked, d)
	wait := d
	if wait > 0 && wait < c.res {
		wait = c.res
	}
	t := &testTimer{at: c.now + wait + c.lag, fn: fn}
	c.timers = append(c.timers, t)
	return clock.StopWith(t)
}

func (t *testTimer) Stop() bool {
	t.stopped = true
	return true
}

// advance moves the clock forward by d, firing due timers in time order
// (in arming order at one instant).
func (c *testClock) advance(d time.Duration) {
	target := c.now + d
	for {
		best := -1
		live := c.timers[:0]
		for _, t := range c.timers {
			if t.stopped {
				continue
			}
			live = append(live, t)
			if t.at <= target && (best < 0 || t.at < live[best].at) {
				best = len(live) - 1
			}
		}
		clear(c.timers[len(live):])
		c.timers = live
		if best < 0 {
			break
		}
		t := c.timers[best]
		t.stopped = true
		if t.at > c.now { // an overdue timer fires late, not in the past
			c.now = t.at
		}
		t.fn()
	}
	c.now = target
}

// stubEndpoint is a transport.Endpoint that records accepted messages and
// can be told to refuse sends, mimicking a saturated uplink.
type stubEndpoint struct {
	addr transport.Addr
	fail error
	sent []transport.Message
}

func (s *stubEndpoint) Addr() transport.Addr { return s.addr }

func (s *stubEndpoint) Send(_ transport.Addr, msg transport.Message) error {
	if s.fail != nil {
		return s.fail
	}
	s.sent = append(s.sent, msg)
	return nil
}

func (s *stubEndpoint) SetHandler(transport.Handler)     {}
func (s *stubEndpoint) SetDropHandler(transport.Handler) {}
func (s *stubEndpoint) Close() error                     { return nil }

func newStubEngine(clk *testClock, ep *stubEndpoint, dp DataPlaneConfig) *Engine {
	node := overlay.NewNode(overlay.HashID("stub"), ep, clk)
	return NewEngine(node, clk, nil, nil, rand.New(rand.NewSource(1)), Config{
		InBps:     1e9,
		OutBps:    1e9,
		DataPlane: dp,
	})
}

var stubPeer = overlay.NodeInfo{ID: overlay.HashID("peer"), Addr: "peer"}

// Regression for the uplink-skew bug: a unit the transport refuses must not
// charge the send meter — OutBpsUsed previously inflated exactly when the
// link was congested, misleading the composer's availability vector. Pinned
// on the zero config, where every unit is a batch of one flushed by
// batchUnit itself.
func TestSendUnitChargesOnlyTransportedBytes(t *testing.T) {
	clk := &testClock{}
	ep := &stubEndpoint{addr: "stub", fail: transport.ErrBacklog}
	e := newStubEngine(clk, ep, DataPlaneConfig{})
	flow := e.flowFor("app", 0)
	comp := &component{key: "app/0/0", flow: flow}
	out := &outSpec{To: stubPeer, ToStage: 1}
	send := func() {
		e.batchUnit(out, pendingUnit{
			msg: dataMsg{Req: "app", Stage: 1, Seq: 1, Size: 1250}, comp: comp, flow: flow,
		})
		if len(e.dests) != 0 || len(clk.timers) != 0 {
			t.Fatalf("a batch of one left %d destination records and %d timers armed, want 0 and 0",
				len(e.dests), len(clk.timers))
		}
	}

	send()
	clk.now += time.Second
	send()
	if flow.droppedUnits != 2 || e.DropsUplink != 2 {
		t.Fatalf("refused sends dropped %d units (%d uplink), want 2 (2)", flow.droppedUnits, e.DropsUplink)
	}
	if got := e.Monitor.Report(clk.now).OutBpsUsed; got != 0 {
		t.Fatalf("OutBpsUsed = %v after refused sends, want 0", got)
	}

	ep.fail = nil
	send()
	clk.now += time.Second
	send()
	if flow.forwardedUnits != 2 {
		t.Fatalf("accepted sends forwarded %d units, want 2", flow.forwardedUnits)
	}
	if got := e.Monitor.Report(clk.now).OutBpsUsed; got <= 0 {
		t.Fatalf("OutBpsUsed = %v after accepted sends, want > 0", got)
	}
	if len(ep.sent) != 2 {
		t.Fatalf("transport saw %d messages, want 2", len(ep.sent))
	}
	for _, msg := range ep.sent {
		if units := decodeWireBatch(t, msg); len(units) != 1 {
			t.Fatalf("zero-config wire message carries %d units, want 1", len(units))
		}
	}
}

// startStubSource starts a source of rate units/s on a stub engine and
// returns the counters it charges.
func startStubSource(e *Engine, rate int) *flowCounters {
	e.startSource("app", 0, spec.Substream{Rate: rate}, 1000, []outSpec{{To: stubPeer, Rate: float64(rate)}})
	return e.flowFor("app", 0)
}

// A source with no flush interval sends its head unit in the instant it is
// started and then one unit per period, so it is never more than a unit
// behind rate·t nor two ahead of it, also at rates whose period is not a
// whole number of nanoseconds (there rate·period falls just short of one
// unit, and a credit kept in rate·seconds would slip an emission).
func TestSourceEmitsOneUnitPerPeriod(t *testing.T) {
	for _, rate := range []int{3, 7, 30} {
		clk := &testClock{}
		ep := &stubEndpoint{addr: "stub"}
		e := newStubEngine(clk, ep, DataPlaneConfig{})
		flow := startStubSource(e, rate)
		period := time.Duration(float64(time.Second) / float64(rate))

		clk.advance(0)
		if flow.emittedUnits != 1 || decodeWireBatch(t, ep.sent[0])[0].Created != 0 {
			t.Fatalf("rate %d: %d units at activation, want the head unit created then", rate, flow.emittedUnits)
		}
		for clk.now < 10*time.Second {
			clk.advance(period / 7)
			due := float64(rate) * clk.now.Seconds()
			if got := float64(flow.emittedUnits); got < due-1 || got > due+2 {
				t.Fatalf("rate %d: %d units emitted by %v, want within [%.2f, %.2f]", rate, flow.emittedUnits, clk.now, due-1, due+2)
			}
		}
		if len(ep.sent) != int(flow.emittedUnits) {
			t.Errorf("rate %d: %d wire messages for %d units, want one each", rate, len(ep.sent), flow.emittedUnits)
		}
	}
}

// On a clock whose timers keep a millisecond and fire 0.3 ms late, a source
// at 2000 units/s ticks once per millisecond and emits what each tick owes
// (two units and a bit). Ticking every period instead, each tick would be
// 1.3 ms late against a catch-up cap of two periods and lose a quarter of
// the rate.
func TestSourceHoldsRateOnCoarseClock(t *testing.T) {
	const rate, seconds = 2000, 4
	clk := &testClock{res: time.Millisecond, lag: 300 * time.Microsecond}
	e := newStubEngine(clk, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
	flow := startStubSource(e, rate)
	clk.advance(seconds * time.Second)
	if got := float64(flow.emittedUnits) / (rate * seconds); got < 0.99 {
		t.Fatalf("attainment at %d units/s on a 1 ms clock = %.3f (%d units), want ≥ 0.99", rate, got, flow.emittedUnits)
	}
	for _, d := range clk.asked[2:] { // after the head unit and the phase
		if d != clk.res {
			t.Fatalf("the source armed a %v tick on a %v clock, want %v", d, clk.res, clk.res)
		}
	}
}

// A source holds its rate on a clock whose timers fire late: credit accrues
// from the time that passed, not from the number of ticks. 650 µs is the
// tick lag the benchmark suite measures on live-loopback at 500 units/s,
// where a credit of one unit per tick attains 2/2.65 of the rate.
func TestSourceHoldsRateWhenTimersLag(t *testing.T) {
	const rate, seconds = 500, 4
	clk := &testClock{lag: 650 * time.Microsecond}
	e := newStubEngine(clk, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
	flow := startStubSource(e, rate)
	clk.advance(seconds * time.Second)
	if got := float64(flow.emittedUnits) / (rate * seconds); got < 0.98 || got > 1.001 {
		t.Fatalf("attainment with lagging timers = %.3f (%d units), want within [0.98, 1.001]", got, flow.emittedUnits)
	}

	// A clock that stalls outright is caught up only by the bounded burst.
	before := flow.emittedUnits
	clk.now += time.Second
	clk.advance(0)
	if burst := flow.emittedUnits - before; burst < 1 || burst > sourceCatchUpTicks+1 {
		t.Fatalf("a 1 s stall was followed by a burst of %d units, want at most %d", burst, sourceCatchUpTicks+1)
	}
}

func TestUnitCodecRoundTrip(t *testing.T) {
	units := []pendingUnit{
		{msg: dataMsg{Req: "a", Substream: 0, Stage: 0, Seq: 0, Created: 0, Size: 0}},
		{msg: dataMsg{Req: "app-7", Substream: 3, Stage: 2, Seq: 1 << 40, Created: 90 * time.Minute, Size: 64 << 10}},
		{msg: dataMsg{Req: "", Substream: 1, Stage: 5, Seq: 9, Created: time.Microsecond, Size: 1250}},
	}
	b := appendBatchUnits(nil, units)
	wantLen := 2
	for i := range units {
		wantLen += unitWireOverhead + len(units[i].msg.Req)
	}
	if len(b) != wantLen {
		t.Fatalf("encoded %d bytes, want %d", len(b), wantLen)
	}
	got := decodeBatchUnits(b, nil, nil)
	if len(got) != len(units) {
		t.Fatalf("decoded %d units, want %d", len(got), len(units))
	}
	for i := range units {
		if got[i] != units[i].msg {
			t.Fatalf("unit %d = %+v, want %+v", i, got[i], units[i].msg)
		}
	}
}

// Every truncation of a valid batch must be rejected, never partially
// decoded: a batch is all-or-nothing on the wire.
func TestDecodeBatchRejectsTruncation(t *testing.T) {
	units := []pendingUnit{
		{msg: dataMsg{Req: "req-1", Seq: 1, Size: 100}},
		{msg: dataMsg{Req: "req-2", Seq: 2, Size: 200}},
	}
	b := appendBatchUnits(nil, units)
	for cut := 0; cut < len(b); cut++ {
		if got := decodeBatchUnits(b[:cut], nil, nil); got != nil {
			t.Fatalf("decode of %d/%d bytes = %d units, want rejection", cut, len(b), len(got))
		}
	}
	if decodeBatchUnits(nil, nil, nil) != nil {
		t.Fatal("decode of empty buffer must be rejected")
	}
	if decodeBatchUnits(append(b, 0), nil, nil) != nil {
		t.Fatal("decode of a batch with a trailing byte must be rejected")
	}
}

// FuzzDecodeBatchUnits feeds arbitrary bytes to the decoder that takes
// every data unit off the network: it must never panic, never return more
// units than the count word announces, and whatever it accepts must
// re-encode to exactly the input.
func FuzzDecodeBatchUnits(f *testing.F) {
	whole := appendBatchUnits(nil, []pendingUnit{
		{msg: dataMsg{Req: "a"}},
		{msg: dataMsg{Req: "app-7", Substream: 3, Stage: 2, Seq: 1 << 40, Created: 90 * time.Minute, Size: 64 << 10}},
		{msg: dataMsg{Req: "", Substream: 1, Stage: 5, Seq: 9, Created: time.Microsecond, Size: 1250}},
	})
	f.Add(whole)
	f.Add(whole[:len(whole)/2])                     // truncated mid-unit
	f.Add(append(whole[:len(whole):len(whole)], 0)) // trailing byte
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		units := decodeBatchUnits(b, nil, nil)
		if units == nil {
			return
		}
		if count := int(binary.BigEndian.Uint16(b)); len(units) != count {
			t.Fatalf("decoded %d units from a batch announcing %d", len(units), count)
		}
		pending := make([]pendingUnit, len(units))
		for i := range units {
			pending[i].msg = units[i]
		}
		if re := appendBatchUnits(nil, pending); !bytes.Equal(re, b) {
			t.Fatalf("accepted batch does not re-encode to its input:\n in  %x\n out %x", b, re)
		}
	})
}

func TestBatchFlushOnFull(t *testing.T) {
	clk := &testClock{}
	ep := &stubEndpoint{addr: "stub"}
	e := newStubEngine(clk, ep, DataPlaneConfig{BatchUnits: 4, Shards: 1})
	flow := e.flowFor("app", 0)
	comp := &component{key: "app/0/0", flow: flow}
	out := &outSpec{To: stubPeer, ToStage: 1}

	for seq := int64(0); seq < 4; seq++ {
		e.batchUnit(out, pendingUnit{
			msg:  dataMsg{Req: "app", Stage: 1, Seq: seq, Size: 1000},
			comp: comp,
			flow: flow,
		})
	}
	if len(ep.sent) != 1 {
		t.Fatalf("transport saw %d messages after a full batch, want 1", len(ep.sent))
	}
	if n := e.DataPlaneStatus().OpenBatches; n != 0 {
		t.Fatalf("%d open batches after flush, want 0", n)
	}
	units := decodeWireBatch(t, ep.sent[0])
	if len(units) != 4 {
		t.Fatalf("wire batch carries %d units, want 4", len(units))
	}
	for i, u := range units {
		if u.Seq != int64(i) {
			t.Fatalf("unit %d has seq %d, want emission order preserved", i, u.Seq)
		}
	}
	// The padded wire size must bill the simulated payload: 4×1000 bytes.
	env := 48 + len(ep.sent[0].Type)
	if got := ep.sent[0].WireSize() - env; got < 4000 {
		t.Fatalf("batch wire size %d below simulated payload 4000", got)
	}
	if flow.forwardedUnits != 4 || flow.forwardedBytes != 4000 {
		t.Fatalf("flow forwarded %d units / %d bytes, want 4 / 4000",
			flow.forwardedUnits, flow.forwardedBytes)
	}
}

func TestBatchFlushOnDeadline(t *testing.T) {
	clk := &testClock{}
	ep := &stubEndpoint{addr: "stub"}
	e := newStubEngine(clk, ep, DataPlaneConfig{BatchUnits: 100, FlushInterval: 2 * time.Millisecond, Shards: 1})
	flow := e.flowFor("app", 0)
	out := &outSpec{To: stubPeer, ToStage: 1}

	for seq := int64(0); seq < 2; seq++ {
		e.batchUnit(out, pendingUnit{
			msg:  dataMsg{Req: "app", Stage: 1, Seq: seq, Size: 500},
			flow: flow,
		})
	}
	if len(ep.sent) != 0 {
		t.Fatal("under-full batch flushed before its deadline")
	}
	if len(clk.asked) != 1 {
		t.Fatalf("a batch of two units armed %d deadline timers, want 1 (by its first unit)", len(clk.asked))
	}
	clk.advance(2 * time.Millisecond)
	if len(ep.sent) != 1 {
		t.Fatalf("transport saw %d messages after the flush deadline, want 1", len(ep.sent))
	}
	if units := decodeWireBatch(t, ep.sent[0]); len(units) != 2 {
		t.Fatalf("deadline flush carried %d units, want 2", len(units))
	}
	// The deadline timer is consumed: nothing further fires.
	clk.advance(time.Second)
	if len(ep.sent) != 1 {
		t.Fatalf("transport saw %d messages after idle time, want 1", len(ep.sent))
	}
}

func TestFlushAllCancelsDeadline(t *testing.T) {
	clk := &testClock{}
	ep := &stubEndpoint{addr: "stub"}
	e := newStubEngine(clk, ep, DataPlaneConfig{BatchUnits: 100, FlushInterval: 2 * time.Millisecond, Shards: 1})

	e.batchUnit(&outSpec{To: stubPeer}, pendingUnit{msg: dataMsg{Req: "app", Size: 700}, flow: e.flowFor("app", 0)})
	e.flushAll()
	if len(ep.sent) != 1 {
		t.Fatalf("transport saw %d messages after flushAll, want 1", len(ep.sent))
	}
	// The next batch opens before the stopped deadline's instant and
	// keeps its own full interval.
	clk.advance(time.Millisecond)
	e.batchUnit(&outSpec{To: stubPeer}, pendingUnit{msg: dataMsg{Req: "app", Size: 700}, flow: e.flowFor("app", 0)})
	clk.advance(2*time.Millisecond - time.Nanosecond)
	if len(ep.sent) != 1 {
		t.Fatal("the stopped deadline timer flushed the next batch early")
	}
	clk.advance(time.Nanosecond)
	if len(ep.sent) != 2 {
		t.Fatalf("transport saw %d messages after the second deadline, want 2", len(ep.sent))
	}
}

// A refused batch charges every unit as an uplink drop and leaves the send
// meter untouched — the multi-unit twin of the regression above.
func TestBatchSettlesRefusedSends(t *testing.T) {
	clk := &testClock{}
	ep := &stubEndpoint{addr: "stub", fail: transport.ErrBacklog}
	e := newStubEngine(clk, ep, DataPlaneConfig{BatchUnits: 2, Shards: 1})
	flow := e.flowFor("app", 0)
	comp := &component{key: "app/0/0", flow: flow}

	// One forwarded unit and one source emission in the same batch: two
	// outs of different flows to one host share its batch.
	e.batchUnit(&outSpec{To: stubPeer, ToStage: 1}, pendingUnit{
		msg: dataMsg{Req: "app", Stage: 1, Seq: 1, Size: 1000}, comp: comp, flow: flow,
	})
	e.batchUnit(&outSpec{To: stubPeer}, pendingUnit{
		msg: dataMsg{Req: "app", Stage: 0, Seq: 2, Size: 1000}, fromStage: -1, flow: flow,
	})
	if e.DropsUplink != 1 {
		t.Fatalf("DropsUplink = %d, want 1 (source drops are monitor-only)", e.DropsUplink)
	}
	if flow.droppedUnits != 2 || flow.droppedBytes != 2000 {
		t.Fatalf("flow dropped %d units / %d bytes, want 2 / 2000", flow.droppedUnits, flow.droppedBytes)
	}
	clk.now += time.Second
	if got := e.Monitor.Report(clk.now).OutBpsUsed; got != 0 {
		t.Fatalf("OutBpsUsed = %v after refused batch, want 0", got)
	}
}

// Oversized request IDs cannot be framed with a u8 length. Nothing falls
// back to another encoding: Submit refuses the request with a typed error,
// and a host refuses to instantiate a component for one, so no unit ever
// carries such an ID into a batch it would corrupt.
func TestLongRequestIDRejected(t *testing.T) {
	clk := &testClock{}
	e := newStubEngine(clk, &stubEndpoint{addr: "stub"}, DataPlaneConfig{BatchUnits: 8, Shards: 1})
	long := strings.Repeat("x", spec.MaxRequestIDBytes+1)

	var got error
	e.Submit(spec.Request{
		ID: long, UnitBytes: 1000,
		Substreams: []spec.Substream{{Services: []string{"filter"}, Rate: 10}},
	}, nil, time.Second, func(_ *core.ExecutionGraph, err error) { got = err })
	if !errors.Is(got, spec.ErrRequestIDTooLong) {
		t.Fatalf("Submit error = %v, want ErrRequestIDTooLong", got)
	}

	// No instantiate or teardown frame can carry the ID to a host either.
	if _, err := appendInstantiate(nil, instantiateMsg{Req: long, Service: "filter", Rate: 10}); !errors.Is(err, spec.ErrRequestIDTooLong) {
		t.Fatalf("appendInstantiate error = %v, want ErrRequestIDTooLong", err)
	}
	if _, err := appendRequestID(nil, long); !errors.Is(err, spec.ErrRequestIDTooLong) {
		t.Fatalf("appendRequestID error = %v, want ErrRequestIDTooLong", err)
	}
}

// The engine's free list hands back a returned unit cleared, and a
// get/put round allocates nothing once the list holds a unit.
func TestUnitPoolClearsReleasedUnits(t *testing.T) {
	e := newStubEngine(&testClock{}, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
	u, task := e.getUnit()
	task.comp = &component{key: "app/0/0"}
	task.msg = dataMsg{Req: "app", Seq: 9, Size: 1}
	u.ComponentKey = "app/0/0"
	e.putUnit(u)
	u2, task2 := e.getUnit()
	if u2 != u || task2 != task {
		t.Fatal("the free list did not hand back the unit just returned")
	}
	if task2.comp != nil || task2.msg != (dataMsg{}) || u2.ComponentKey != "" {
		t.Fatalf("free unit retains state: %+v / %+v", u2, task2)
	}
	e.putUnit(u2)
	if n := testing.AllocsPerRun(100, func() {
		u, task := e.getUnit()
		task.msg.Seq++
		e.putUnit(u)
	}); n != 0 {
		t.Fatalf("a get/put round allocates %v times, want 0", n)
	}
}

func TestShardForPinsSubstreams(t *testing.T) {
	clk := &testClock{}
	e := newStubEngine(clk, &stubEndpoint{addr: "stub"}, DataPlaneConfig{BatchUnits: 1, Shards: 4})
	if len(e.shards) != 4 {
		t.Fatalf("engine has %d shards, want 4", len(e.shards))
	}
	seen := map[*engineShard]bool{}
	for sub := 0; sub < 64; sub++ {
		sh := e.shardFor("app", sub)
		if sh != e.shardFor("app", sub) {
			t.Fatalf("substream %d not pinned to one shard", sub)
		}
		seen[sh] = true
	}
	if len(seen) < 2 {
		t.Fatal("64 substreams all hashed to one shard; distribution broken")
	}
}

// decodeWireBatch strips the overlay's data envelope (appLen app nodeinfo
// body) and decodes the batch payload.
func decodeWireBatch(t *testing.T, msg transport.Message) []dataMsg {
	t.Helper()
	b := msg.Payload
	appLen := int(b[0])
	app := string(b[1 : 1+appLen])
	_, b, ok := overlay.ParseNodeInfo(b[1+appLen:])
	if !ok || app != appDataBatch {
		t.Fatalf("wire app = %q (sender parsed: %v), want %q", app, ok, appDataBatch)
	}
	units := decodeBatchUnits(b, nil, nil)
	if units == nil {
		t.Fatal("wire batch payload failed to decode")
	}
	return units
}

// A component's observations reach the row a lookup by its key would: a
// successor instantiated under the same key shares the row its predecessor
// holds, and a component torn down while it still had units queued reaches
// no row, then the fresh row its successor's first arrival opens.
func TestComponentRowFollowsKey(t *testing.T) {
	e := newStubEngine(&testClock{}, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
	const key = "app/0/1"
	old := &component{key: key}
	old.row = e.Monitor.Arrive(old.row, key, "a", 0, 100)
	replaced := &component{key: key}
	if e.row(replaced) != old.row {
		t.Fatal("a re-instantiated component does not share its predecessor's row")
	}

	e.Monitor.Forget(key)
	if e.row(old) != nil {
		t.Fatal("a torn-down component still reaches a row")
	}
	e.Monitor.Processed(e.row(old), time.Millisecond)
	if n := len(e.Monitor.Report(0).Components); n != 0 {
		t.Fatalf("a unit processed after its teardown left %d rows", n)
	}
	succ := &component{key: key}
	succ.row = e.Monitor.Arrive(succ.row, key, "a", time.Second, 100)
	e.Monitor.Processed(e.row(old), time.Millisecond)
	if e.row(old) != succ.row || e.Monitor.Report(time.Second).Components[key].Processed != 1 {
		t.Fatal("a straggler of a torn-down component did not reach its successor's row")
	}
}
