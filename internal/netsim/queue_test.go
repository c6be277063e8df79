package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// world is what the random programs below need of a simulation: a clock,
// cancellable events at absolute instants, and a network of a few nodes
// whose deliveries and downlink drops the program observes.
type world interface {
	Now() time.Duration
	timer(t time.Duration, fn func()) (cancel func())
	send(from, to NodeID, size int, payload interface{}, droppable bool) bool
	partition(a, b NodeID, blocked bool)
	onMessage(h func(to NodeID, delivered bool, payload interface{}))
}

// simWorld is the simulator under test.
type simWorld struct {
	*Simulator
	nw *Network
}

func (w simWorld) timer(t time.Duration, fn func()) func() { return w.Simulator.timer(t, fn).Stop }

func (w simWorld) send(from, to NodeID, size int, payload interface{}, droppable bool) bool {
	if droppable {
		return w.nw.SendDroppable(from, to, size, payload)
	}
	return w.nw.Send(from, to, size, payload)
}

func (w simWorld) partition(a, b NodeID, blocked bool) { w.nw.SetPartition(a, b, blocked) }

func (w simWorld) onMessage(h func(to NodeID, delivered bool, payload interface{})) {
	for id := NodeID(0); int(id) < w.nw.NumNodes(); id++ {
		id := id
		w.nw.SetHandler(id, func(_ NodeID, _ int, p interface{}) { h(id, true, p) })
		w.nw.SetDropHandler(id, func(_ NodeID, _ int, p interface{}) { h(id, false, p) })
	}
}

// refWorld is the reference: the pending events kept in scheduling order
// and stable-sorted by time before every pop, so same-instant events leave
// in the order they were scheduled, and a message modelled the way the
// simulator first did it, as a closure for its arrival at the receiver's
// downlink that schedules another for its delivery.
type refWorld struct {
	clock   time.Duration
	pending []refEvent
	rng     *rand.Rand
	cfg     Config
	up      []link
	down    []link
	blocked map[[2]NodeID]bool
	handler func(to NodeID, delivered bool, payload interface{})
}

type refEvent struct {
	at        time.Duration
	fn        func()
	cancelled *bool
}

func (r *refWorld) Now() time.Duration { return r.clock }

func (r *refWorld) timer(t time.Duration, fn func()) func() {
	if t < r.clock {
		t = r.clock
	}
	cancelled := new(bool)
	r.pending = append(r.pending, refEvent{at: t, fn: fn, cancelled: cancelled})
	return func() { *cancelled = true }
}

func (r *refWorld) partition(a, b NodeID, blocked bool) { r.blocked[pairKey(a, b)] = blocked }

func (r *refWorld) onMessage(h func(to NodeID, delivered bool, payload interface{})) { r.handler = h }

func (r *refWorld) send(from, to NodeID, size int, payload interface{}, droppable bool) bool {
	deliver := func() { r.handler(to, true, payload) }
	if from == to {
		r.timer(r.clock, deliver)
		return true
	}
	if r.blocked[pairKey(from, to)] {
		return true
	}
	now := r.clock
	up := &r.up[from]
	if droppable && r.cfg.MaxLinkBacklog > 0 && up.busyUntil-now > r.cfg.MaxLinkBacklog {
		return false
	}
	if droppable && r.cfg.LossRate > 0 && r.rng.Float64() < r.cfg.LossRate {
		return true
	}
	backlog := max(up.busyUntil-now, 0)
	sent := up.serialize(now, size)
	prop := r.cfg.Latency(from, to)
	if r.cfg.Jitter > 0 {
		prop += time.Duration(r.rng.Int63n(int64(r.cfg.Jitter)))
	}
	if r.cfg.CongestionJitter > 0 && backlog > 0 {
		if bound := int64(float64(backlog) * r.cfg.CongestionJitter); bound > 0 {
			prop += time.Duration(r.rng.Int63n(bound))
		}
	}
	r.timer(sent+prop, func() {
		down := &r.down[to]
		if droppable && r.cfg.MaxLinkBacklog > 0 && down.busyUntil-r.clock > r.cfg.MaxLinkBacklog {
			r.handler(to, false, payload)
			return
		}
		r.timer(down.serialize(r.clock, size), deliver)
	})
	return true
}

func (r *refWorld) run() {
	for len(r.pending) > 0 {
		sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
		ev := r.pending[0]
		r.pending = r.pending[1:]
		r.clock = ev.at
		if !*ev.cancelled {
			ev.fn()
		}
	}
}

// worldNodes is the number of network nodes of a random program.
const worldNodes = 4

// worldConfig draws a network small and slow enough that the programs below
// congest it: downlink drops, uplink refusals and congestion jitter all
// happen.
func worldConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	var lat [worldNodes][worldNodes]time.Duration
	for a := range lat {
		for b := range lat[a] {
			lat[a][b] = time.Duration(rng.Intn(3)) * time.Millisecond
		}
	}
	return Config{
		Latency:          func(a, b NodeID) time.Duration { return lat[a][b] },
		Jitter:           time.Duration(rng.Intn(2)) * time.Millisecond,
		LossRate:         []float64{0, 0.05}[rng.Intn(2)],
		MaxLinkBacklog:   time.Duration(rng.Intn(3)) * 2 * time.Millisecond,
		CongestionJitter: []float64{0, 0.5}[rng.Intn(2)],
	}
}

func newSimWorld(seed int64) *simWorld {
	sim := New(seed)
	nw := NewNetwork(sim, worldConfig(seed))
	for i := 0; i < worldNodes; i++ {
		nw.AddNode(1e6, 2e6) // a 1000-byte message holds an uplink for 8 ms
	}
	return &simWorld{Simulator: sim, nw: nw}
}

func newRefWorld(seed int64) *refWorld {
	r := &refWorld{rng: rand.New(rand.NewSource(seed)), cfg: worldConfig(seed), blocked: make(map[[2]NodeID]bool)}
	for i := 0; i < worldNodes; i++ {
		r.up = append(r.up, link{capacityBps: 1e6})
		r.down = append(r.down, link{capacityBps: 2e6})
	}
	return r
}

// fired is one observed step of a program: a timer running (kind 't'), a
// message delivered ('d'), dropped at its receiver's downlink ('x') or
// refused by its sender's uplink ('u'); id labels the timer or message.
type fired struct {
	kind byte
	id   int
	at   time.Duration
}

// randomProgram seeds w with a random program and returns the log its
// events write as they run. Delays are drawn from a few milliseconds so
// many events share an instant; callbacks schedule children (some at delay
// zero, some in the past), send messages — reliable and droppable, local
// and remote — cut and heal links, and cancel timers, fired ones included.
// Deliveries schedule children too. The program draws from its own rng in
// the order events run, so two worlds that run events in the same order
// build the same program.
func randomProgram(w world, seed int64) *[]fired {
	rng := rand.New(rand.NewSource(seed))
	log := &[]fired{}
	next := 0
	var cancels []func()
	var schedule func(depth int)
	send := func() {
		id := next
		next++
		from, to := NodeID(rng.Intn(worldNodes)), NodeID(rng.Intn(worldNodes))
		if !w.send(from, to, 100+rng.Intn(1900), id, rng.Intn(3) > 0) {
			*log = append(*log, fired{'u', id, w.Now()})
		}
	}
	w.onMessage(func(to NodeID, delivered bool, p interface{}) {
		kind := byte('x')
		if delivered {
			kind = 'd'
		}
		*log = append(*log, fired{kind, p.(int), w.Now()})
		if delivered && rng.Intn(4) == 0 {
			schedule(3)
		}
	})
	schedule = func(depth int) {
		id := next
		next++
		t := w.Now() + time.Duration(rng.Intn(4))*time.Millisecond
		if rng.Intn(10) == 0 {
			t = w.Now() - time.Millisecond // in the past: runs now, after what is pending now
		}
		cancel := w.timer(t, func() {
			*log = append(*log, fired{'t', id, w.Now()})
			for k := rng.Intn(4); k > 0; k-- {
				send()
			}
			if depth < 4 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(depth + 1)
				}
			}
			if rng.Intn(8) == 0 {
				w.partition(NodeID(rng.Intn(worldNodes)), NodeID(rng.Intn(worldNodes)), rng.Intn(2) == 0)
			}
			if len(cancels) > 0 && rng.Intn(3) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		})
		if rng.Intn(4) == 0 {
			cancels = append(cancels, cancel)
		}
	}
	w.partition(0, 1, true) // some black-holes from the start
	for i := 0; i < 1+rng.Intn(30); i++ {
		schedule(0)
	}
	return log
}

// Property: the simulator runs timers and message events in exactly the
// order of a stable sort by (at, seq) over the closure-per-message model —
// same-instant events in scheduling order, events scheduled from callbacks
// and in the past included, cancellation skipping an event without
// reordering the rest (and a late cancel touching nothing), and every
// message delivered, dropped at a downlink, refused by an uplink or
// black-holed by a partition exactly as the reference does, at the same
// instant and with the same random draws.
func TestEventQueueMatchesStableSort(t *testing.T) {
	kinds := map[byte]int{}
	for seed := int64(0); seed < 2000; seed++ {
		sim := newSimWorld(seed)
		got := randomProgram(sim, seed)
		sim.Run()
		ref := newRefWorld(seed)
		want := randomProgram(ref, seed)
		ref.run()
		if len(*got) != len(*want) {
			t.Fatalf("seed %d: %d steps ran, reference ran %d", seed, len(*got), len(*want))
		}
		for i := range *got {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("seed %d: step %d = %+v, reference %+v", seed, i, (*got)[i], (*want)[i])
			}
			kinds[(*got)[i].kind]++
		}
		if sim.Now() != ref.clock {
			t.Fatalf("seed %d: run ended at %v, reference at %v", seed, sim.Now(), ref.clock)
		}
	}
	// The programs must exercise every outcome, or the property says
	// little about it.
	for _, k := range []byte("tdxu") {
		if kinds[k] == 0 {
			t.Fatalf("no program produced a %q step: %v", k, kinds)
		}
	}
}

// Scheduling and running an event, or arming and stopping a timer, costs
// no allocation beyond the callback the caller built.
func TestScheduleDoesNotAllocate(t *testing.T) {
	sim := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		sim.Schedule(time.Duration(i), fn) // grow the queue once
	}
	sim.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		sim.Schedule(time.Millisecond, fn)
		sim.Schedule(0, fn)
		sim.Timer(time.Millisecond, fn)
		sim.Timer(time.Millisecond, fn).Stop()
		sim.Run()
	}); allocs != 0 {
		t.Fatalf("Schedule, Timer, Stop + dispatch allocate %v times, want 0", allocs)
	}
}

// A message's send, its two events and its delivery allocate nothing at
// steady state, reliable or droppable, remote or local: the flight and its
// queue slots are reused.
func TestSendDoesNotAllocate(t *testing.T) {
	sim := New(1)
	nw := NewNetwork(sim, Config{Jitter: time.Millisecond, MaxLinkBacklog: time.Second, CongestionJitter: 0.5})
	a, b := nw.AddNode(1e8, 1e8), nw.AddNode(1e8, 1e8)
	got := 0
	nw.SetHandler(b, func(NodeID, int, interface{}) { got++ })
	nw.SetHandler(a, func(NodeID, int, interface{}) { got++ })
	payload := &struct{ n int }{}
	burst := func() {
		for i := 0; i < 8; i++ {
			nw.Send(a, b, 1250, payload)
			nw.SendDroppable(a, b, 1250, payload)
		}
		nw.Send(a, a, 100, payload)
		sim.Run()
	}
	burst() // grow the queue and the flight pool once
	if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
		t.Fatalf("a burst of sends and deliveries allocates %v times, want 0", allocs)
	}
	if want := 17 * 1002; got != want {
		t.Fatalf("delivered %d messages, want %d", got, want)
	}
}

// A stopped timer does not run and still advances the clock to its
// instant; stopping it again, or after it fired, changes nothing — not
// even the event that reused its queue slot.
func TestTimerCancel(t *testing.T) {
	sim := New(1)
	ran := 0
	first := sim.Timer(time.Second, func() { ran++ })
	stopped := sim.Timer(2*time.Second, func() { ran++ })
	stopped.Stop()
	stopped.Stop()
	sim.Run()
	if ran != 1 || sim.Now() != 2*time.Second {
		t.Fatalf("ran %d, clock %v; want 1 and 2s", ran, sim.Now())
	}
	sim.Timer(time.Second, func() { ran++ }) // reuses a freed slot
	first.Stop()
	stopped.Stop()
	sim.Run()
	if ran != 2 || sim.Now() != 3*time.Second {
		t.Fatalf("ran %d, clock %v; want 2 and 3s", ran, sim.Now())
	}
}

// The zero Timer is unarmed: Stop on it does nothing.
func TestZeroTimerStopIsNoop(t *testing.T) {
	sim := New(1)
	ran := false
	sim.Timer(time.Second, func() { ran = true })
	Timer{}.Stop()
	sim.Run()
	if !ran {
		t.Fatal("the queued timer did not run")
	}
}
