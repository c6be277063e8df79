package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// scheduler is what the random schedules below need of a simulator.
type scheduler interface {
	Now() time.Duration
	at(t time.Duration, fn func(), cancelled *bool)
}

// refScheduler is the reference queue: the pending events kept in
// scheduling order and stable-sorted by time before every pop, so
// same-instant events leave in the order they were scheduled.
type refScheduler struct {
	clock   time.Duration
	pending []event
}

func (r *refScheduler) Now() time.Duration { return r.clock }

func (r *refScheduler) at(t time.Duration, fn func(), cancelled *bool) {
	if t < r.clock {
		t = r.clock
	}
	r.pending = append(r.pending, event{at: t, fn: fn, cancelled: cancelled})
}

func (r *refScheduler) run() {
	for len(r.pending) > 0 {
		sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
		ev := r.pending[0]
		r.pending = r.pending[1:]
		r.clock = ev.at
		if ev.cancelled == nil || !*ev.cancelled {
			ev.fn()
		}
	}
}

// fired is one event as it ran: its label and the clock when it did.
type fired struct {
	id int
	at time.Duration
}

// randomSchedule seeds s with a random program and returns the log its
// events write as they run. Delays are drawn from a few milliseconds so
// many events share an instant; callbacks schedule children (some at
// delay zero, some in the past), and some events are cancelled before
// they are reached. The program draws from its own rng in the order
// events run, so two schedulers that run events in the same order build
// the same program.
func randomSchedule(s scheduler, seed int64) *[]fired {
	rng := rand.New(rand.NewSource(seed))
	log := &[]fired{}
	next := 0
	var cancels []*bool
	var schedule func(depth int)
	schedule = func(depth int) {
		id := next
		next++
		t := s.Now() + time.Duration(rng.Intn(4))*time.Millisecond
		if rng.Intn(10) == 0 {
			t = s.Now() - time.Millisecond // in the past: runs now, after what is pending now
		}
		var cancelled *bool
		if rng.Intn(5) == 0 {
			cancelled = new(bool)
			cancels = append(cancels, cancelled)
		}
		s.at(t, func() {
			*log = append(*log, fired{id, s.Now()})
			if depth < 4 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(depth + 1)
				}
			}
			if len(cancels) > 0 && rng.Intn(3) == 0 {
				*cancels[rng.Intn(len(cancels))] = true
			}
		}, cancelled)
	}
	for i := 0; i < 1+rng.Intn(30); i++ {
		schedule(0)
	}
	return log
}

// Property: the typed queue pops exactly the order of a stable sort by
// (at, seq) — same-instant events in scheduling order, events scheduled
// from callbacks and in the past included, and cancellation skipping an
// event without reordering the rest.
func TestEventQueueMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		sim := New(1)
		got := randomSchedule(sim, seed)
		sim.Run()
		ref := &refScheduler{}
		want := randomSchedule(ref, seed)
		ref.run()
		if len(*got) != len(*want) {
			t.Fatalf("seed %d: %d events ran, reference ran %d", seed, len(*got), len(*want))
		}
		for i := range *got {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("seed %d: event %d = %+v, reference %+v", seed, i, (*got)[i], (*want)[i])
			}
		}
	}
}

// Scheduling and running an event costs no allocation beyond the callback
// the caller built.
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
		sim.Run()
	}); allocs != 0 {
		t.Fatalf("Schedule + dispatch allocates %v times, want 0", allocs)
	}
}

// A cancelled timer does not run, still advances the clock to its instant,
// and cancelling after it fired changes nothing.
func TestTimerCancel(t *testing.T) {
	sim := New(1)
	ran := 0
	first := sim.Timer(time.Second, func() { ran++ })
	sim.Timer(2*time.Second, func() { ran++ })()
	sim.Run()
	first()
	if ran != 1 || sim.Now() != 2*time.Second {
		t.Fatalf("ran %d, clock %v; want 1 and 2s", ran, sim.Now())
	}
}
