package monitor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestNodeMonitorReport(t *testing.T) {
	m := NewNodeMonitor(1e6, 2e6, 16)
	m.SetQueueLenFunc(func() int { return 3 })
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now = time.Duration(i) * 100 * time.Millisecond
		m.ObserveArrival("c1", "filter", now, 1250) // 100 kbps inbound
		m.ObserveProcessed("c1", "filter", 5*time.Millisecond)
		m.ObserveSend(now, 2500) // 200 kbps outbound
	}
	r := m.Report(now)
	if r.At != now {
		t.Fatalf("At = %v", r.At)
	}
	if math.Abs(r.InBpsUsed-100_000) > 100 {
		t.Fatalf("InBpsUsed = %g, want ~100000", r.InBpsUsed)
	}
	if math.Abs(r.OutBpsUsed-200_000) > 200 {
		t.Fatalf("OutBpsUsed = %g, want ~200000", r.OutBpsUsed)
	}
	if math.Abs(r.AvailIn()-(1e6-r.InBpsUsed)) > 1e-9 {
		t.Fatal("AvailIn inconsistent")
	}
	if r.QueueLen != 3 {
		t.Fatalf("QueueLen = %d", r.QueueLen)
	}
	cs, ok := r.Components["c1"]
	if !ok {
		t.Fatal("component missing from report")
	}
	if cs.Service != "filter" {
		t.Fatalf("Service = %q", cs.Service)
	}
	if math.Abs(cs.ArrivalRate-10) > 1e-6 {
		t.Fatalf("ArrivalRate = %g, want 10", cs.ArrivalRate)
	}
	if cs.MeanProc != 5*time.Millisecond {
		t.Fatalf("MeanProc = %v", cs.MeanProc)
	}
	if cs.Processed != 20 || cs.Arrived != 20 || cs.Dropped != 0 {
		t.Fatalf("counters = %+v", cs)
	}
	if av := r.Availability(); len(av) != 2 || av[0] != r.AvailIn() || av[1] != r.AvailOut() {
		t.Fatalf("Availability = %v", av)
	}
}

func TestDropRatioTracksWindow(t *testing.T) {
	m := NewNodeMonitor(1e6, 1e6, 10)
	for i := 0; i < 5; i++ {
		m.ObserveArrival("c", "s", time.Duration(i)*time.Millisecond, 100)
		m.ObserveProcessed("c", "s", time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		m.Dropped(m.Row("c"))
	}
	if got := m.DropRatio(); got != 0.5 {
		t.Fatalf("DropRatio = %g, want 0.5", got)
	}
	r := m.Report(0)
	if r.Components["c"].DropRatio != 0.5 {
		t.Fatalf("component DropRatio = %g", r.Components["c"].DropRatio)
	}
	if r.Components["c"].Dropped != 5 {
		t.Fatalf("Dropped = %d", r.Components["c"].Dropped)
	}
}

func TestAvailabilityClampsAtZero(t *testing.T) {
	m := NewNodeMonitor(1000, 1000, 4)
	// Overdrive the link: usage above capacity.
	m.ObserveArrival("c", "s", 0, 100_000)
	m.ObserveArrival("c", "s", time.Second, 100_000)
	r := m.Report(time.Second)
	if r.AvailIn() != 0 {
		t.Fatalf("AvailIn = %g, want 0 (clamped)", r.AvailIn())
	}
}

func TestPerComponentIsolation(t *testing.T) {
	m := NewNodeMonitor(1e6, 1e6, 8)
	for i := 0; i < 10; i++ {
		m.ObserveArrival("a", "sa", time.Duration(i)*10*time.Millisecond, 100)  // 100/s
		m.ObserveArrival("b", "sb", time.Duration(i)*100*time.Millisecond, 100) // 10/s
	}
	if ra, rb := m.ArrivalRate("a"), m.ArrivalRate("b"); math.Abs(ra-100) > 1e-6 || math.Abs(rb-10) > 1e-6 {
		t.Fatalf("rates = %g, %g", ra, rb)
	}
	if m.Period("b") != 100*time.Millisecond {
		t.Fatalf("Period(b) = %v", m.Period("b"))
	}
	if m.ArrivalRate("unknown") != 0 || m.Period("unknown") != 0 || m.Row("unknown").MeanProc() != 0 {
		t.Fatal("unknown component must report zeros")
	}
}

// A component's row lives from its first arrival until Forget of its key:
// forgetting shrinks the report, zeroes the per-component readings, and a unit that
// was still queued when its request went away (processed or dropped after
// Forget) does not bring the row back. Sink arrivals never create one.
func TestForgetDropsComponentRows(t *testing.T) {
	m := NewNodeMonitor(1e6, 1e6, 8)
	for i := 0; i < 10; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		for _, key := range []string{"req-a/0/0", "req-a/0/1", "req-ab/0/0"} {
			m.ObserveArrival(key, "filter", now, 100)
			m.ObserveProcessed(key, "filter", time.Millisecond)
		}
		m.ObserveInbound(now, 100) // a sink's arrival
	}
	if n := len(m.Report(time.Second).Components); n != 3 {
		t.Fatalf("%d component rows before Forget, want 3 (the sink must not have one)", n)
	}
	if m.ArrivalRate("req-a/0/1") == 0 || m.Row("req-a/0/1").MeanProc() == 0 {
		t.Fatal("a live component reports no arrival rate or processing time")
	}

	m.Forget("req-a/0/1")
	if n := len(m.Report(time.Second).Components); n != 2 {
		t.Fatalf("%d rows after forgetting one key, want 2", n)
	}
	m.Forget("req-a/0/0")
	m.Forget("req-a/") // not a key: forgets nothing
	comps := m.Report(time.Second).Components
	if _, ok := comps["req-ab/0/0"]; !ok || len(comps) != 1 {
		t.Fatalf("forgetting request req-a's keys left %v, want only req-ab/0/0", comps)
	}
	if m.ArrivalRate("req-a/0/0") != 0 || m.Row("req-a/0/0").MeanProc() != 0 || m.Period("req-a/0/0") != 0 {
		t.Fatal("a forgotten component still reports an arrival rate or processing time")
	}

	before := m.DropRatio()
	m.ObserveProcessed("req-a/0/0", "filter", time.Millisecond)
	m.Dropped(m.Row("req-a/0/0"))
	if n := len(m.Report(time.Second).Components); n != 1 {
		t.Fatalf("a late observation re-created a forgotten row: %d rows", n)
	}
	if m.DropRatio() <= before {
		t.Fatalf("node-level drop ratio %g did not see the late drop (was %g)", m.DropRatio(), before)
	}
}

// A held row follows the keyed row's lifecycle: after Forget, processed and
// dropped units reach the node-level window only and neither touch the
// forgotten row nor create one, and the next arrival opens a fresh row
// whose counts start from zero.
func TestHeldRowLifecycle(t *testing.T) {
	m := NewNodeMonitor(1e6, 1e6, 8)
	const key = "req/0/1"
	var h *Row
	for i := 0; i < 4; i++ {
		h = m.Arrive(h, key, "filter", time.Duration(i)*time.Millisecond, 100)
		m.Processed(h, time.Millisecond)
	}
	m.Dropped(h)
	if got := m.Report(time.Second).Components[key]; got.Arrived != 4 || got.Processed != 4 || got.Dropped != 1 {
		t.Fatalf("live row = %+v, want 4 arrived, 4 processed, 1 dropped", got)
	}
	if m.Row(key) != h || h.Forgotten() {
		t.Fatal("the key's current row is not the live held one")
	}

	m.Forget(key)
	if !h.Forgotten() || m.Row(key) != nil {
		t.Fatal("Forget left the held row live or the key with a row")
	}
	before := m.DropRatio()
	m.Processed(h, time.Hour)
	m.Dropped(h)
	m.Dropped(h)
	if n := len(m.Report(time.Second).Components); n != 0 || m.Row(key) != nil {
		t.Fatalf("observations on a forgotten row left %d rows", n)
	}
	if h.processed != 4 || h.dropped != 1 || h.MeanProc() != time.Millisecond {
		t.Fatalf("observations after Forget touched the forgotten row: %d processed, %d dropped, mean %v",
			h.processed, h.dropped, h.MeanProc())
	}
	if m.DropRatio() <= before {
		t.Fatalf("node-level drop ratio %g did not see the late drops (was %g)", m.DropRatio(), before)
	}

	fresh := m.Arrive(h, key, "filter", time.Second, 100)
	if fresh == h || fresh.Forgotten() || m.Row(key) != fresh {
		t.Fatal("an arrival after Forget did not open a fresh row")
	}
	if got := m.Report(time.Second).Components[key]; got.Arrived != 1 || got.Processed != 0 || got.Dropped != 0 || got.MeanProc != 0 {
		t.Fatalf("fresh row = %+v, want its counts from zero", got)
	}
}

// A seeded random sequence of arrivals, processings, drops and forgets
// over a few components reads the same Reports when every observation
// looks its row up by key as when each component holds its row the way the
// stream engine does.
func TestHeldRowsMatchKeyedMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := []string{"a/0/0", "a/0/1", "a/1/0", "b/0/0"}
	keyed, held := NewNodeMonitor(1e6, 2e6, 8), NewNodeMonitor(1e6, 2e6, 8)
	rows := make(map[string]*Row)
	now := time.Duration(0)
	for i := 0; i < 5000; i++ {
		now += time.Duration(rng.Intn(2000)) * time.Microsecond
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(20); {
		case op < 8:
			size := 100 + rng.Intn(1000)
			keyed.ObserveArrival(key, "svc-"+key, now, size)
			rows[key] = held.Arrive(rows[key], key, "svc-"+key, now, size)
		case op < 14:
			proc := time.Duration(1+rng.Intn(5000)) * time.Microsecond
			keyed.ObserveProcessed(key, "", proc)
			held.Processed(rows[key], proc)
		case op < 19:
			keyed.Dropped(keyed.Row(key))
			held.Dropped(rows[key])
		default:
			keyed.Forget(key)
			held.Forget(key)
		}
		if keyed.Row(key).MeanProc() != liveRow(rows[key]).MeanProc() {
			t.Fatalf("op %d: MeanProc(%s) = %v keyed, %v held", i, key, keyed.Row(key).MeanProc(), liveRow(rows[key]).MeanProc())
		}
		if i%50 == 0 {
			if a, b := keyed.Report(now), held.Report(now); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d: reports differ\nkeyed %+v\nheld  %+v", i, a, b)
			}
		}
	}
	if a, b := keyed.Report(now), held.Report(now); !reflect.DeepEqual(a, b) {
		t.Fatalf("final reports differ\nkeyed %+v\nheld  %+v", a, b)
	}
}

// liveRow returns r while it is live, nil once forgotten.
func liveRow(r *Row) *Row {
	if r == nil || r.Forgotten() {
		return nil
	}
	return r
}
