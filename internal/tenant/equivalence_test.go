package tenant

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rasc.dev/rasc/internal/spec"
)

// refGate is the admission policy the Gate is held to, stated as plainly
// as possible: every operation re-solves all shares from scratch with the
// FairShares oracle. An admission evicts the lowest rank first, then the
// largest demand, then the lowest app name, while the candidate's share or
// anyone else's is below the floor; a rebalance evicts below-floor tenants
// of a class under the top admitted one the same way, then promotes queued
// tenants in queue order when they fit without evicting anyone. A standing
// tenant's cap moves only when it changes by more than 1e-6, as in the
// gate.
type refGate struct {
	cfg         Config
	capacity    float64
	admitted    map[string]*refTenant
	queue       []*refTenant // rank-descending, FIFO within a class
	nextSeq     int64
	preemptions int64
	rejections  int64
}

type refTenant struct {
	app         string
	pri         spec.Priority
	demand, cap float64
	seq         int64
	preemptions int
}

func newRefGate(cfg Config) *refGate {
	cfg.defaults()
	return &refGate{cfg: cfg, capacity: cfg.CapacityBps, admitted: map[string]*refTenant{}}
}

func (r *refGate) belowFloor(t *refTenant, share float64) bool {
	return share < r.cfg.MinShareFraction*t.demand-1e-9
}

// solve water-fills the admitted tenants plus cand (nil for a rebalance),
// evicting until every share meets the floor; evict false asks for a clean
// fit. ok is false when an admission or a clean fit is not viable; a
// rebalance with nobody left to evict keeps the shortage.
func (r *refGate) solve(cand *refTenant, evict bool) (shares map[string]float64, victims []*refTenant, ok bool) {
	pool := make([]*refTenant, 0, len(r.admitted)+1)
	for _, t := range r.admitted {
		pool = append(pool, t)
	}
	if cand != nil {
		pool = append(pool, cand)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].app < pool[j].app })
	for {
		demands := make([]Demand, len(pool))
		for i, t := range pool {
			demands[i] = Demand{App: t.app, Bps: t.demand, Weight: classWeight(t.pri)}
		}
		fs := FairShares(demands, r.capacity)
		shares = make(map[string]float64, len(pool))
		viable, top := true, 0
		for i, t := range pool {
			shares[t.app] = fs[i]
			viable = viable && !r.belowFloor(t, fs[i])
			top = max(top, t.pri.Rank())
		}
		if viable {
			return shares, victims, true
		}
		if !evict {
			return nil, nil, false
		}
		vi := -1
		for i, t := range pool {
			var eligible bool
			if cand != nil {
				eligible = t != cand && t.pri.Rank() < cand.pri.Rank()
			} else {
				eligible = t.pri.Rank() < top && r.belowFloor(t, fs[i])
			}
			if eligible && (vi < 0 || refEvictsFirst(t, pool[vi])) {
				vi = i
			}
		}
		if vi < 0 {
			return shares, victims, cand == nil
		}
		victims = append(victims, pool[vi])
		pool = append(pool[:vi], pool[vi+1:]...)
	}
}

func refEvictsFirst(a, b *refTenant) bool {
	if a.pri.Rank() != b.pri.Rank() {
		return a.pri.Rank() < b.pri.Rank()
	}
	if a.demand != b.demand {
		return a.demand > b.demand
	}
	return a.app < b.app
}

// commit applies a solve: victims are re-queued at the back of their class
// (or rejected when the queue is full), cand joins, and caps move.
func (r *refGate) commit(cand *refTenant, shares map[string]float64, victims []*refTenant) {
	for _, v := range victims {
		delete(r.admitted, v.app)
		v.preemptions++
		r.preemptions++
		if len(r.queue) < r.cfg.QueueCapacity {
			v.seq = r.nextSeq
			r.nextSeq++
			r.enqueue(v)
		} else {
			r.rejections++
		}
	}
	if cand != nil {
		r.admitted[cand.app] = cand
		cand.cap = shares[cand.app]
	}
	for _, t := range r.admitted {
		if c := shares[t.app]; t != cand && math.Abs(c-t.cap) > 1e-6 {
			t.cap = c
		}
	}
}

func (r *refGate) enqueue(t *refTenant) {
	r.queue = append(r.queue, t)
	sort.Slice(r.queue, func(i, j int) bool {
		a, b := r.queue[i], r.queue[j]
		if a.pri.Rank() != b.pri.Rank() {
			return a.pri.Rank() > b.pri.Rank()
		}
		return a.seq < b.seq
	})
}

func (r *refGate) rebalance() {
	if len(r.admitted) > 0 {
		shares, victims, _ := r.solve(nil, true)
		r.commit(nil, shares, victims)
	}
	for i := 0; i < len(r.queue); {
		q := r.queue[i]
		shares, _, ok := r.solve(q, false)
		if !ok {
			i++
			continue
		}
		r.queue = append(r.queue[:i], r.queue[i+1:]...)
		r.commit(q, shares, nil)
	}
}

func (r *refGate) Admit(app string, pri spec.Priority, demand float64) Decision {
	if t := r.admitted[app]; t != nil {
		if t.demand != demand {
			t.demand = demand
			r.rebalance()
		}
		return Decision{State: StateAdmitted, CapBps: t.cap}
	}
	for _, q := range r.queue {
		if q.app == app {
			return Decision{State: StateQueued}
		}
	}
	cand := &refTenant{app: app, pri: pri, demand: demand, seq: r.nextSeq}
	r.nextSeq++
	shares, victims, ok := r.solve(cand, true)
	if ok {
		r.commit(cand, shares, victims)
		return Decision{State: StateAdmitted, CapBps: cand.cap, New: true}
	}
	if len(r.queue) < r.cfg.QueueCapacity {
		r.enqueue(cand)
		return Decision{State: StateQueued}
	}
	r.rejections++
	return Decision{State: StateRejected}
}

func (r *refGate) Release(app string) {
	if r.admitted[app] != nil {
		delete(r.admitted, app)
		r.rebalance()
		return
	}
	for i, q := range r.queue {
		if q.app == app {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}

func (r *refGate) SetCapacity(bps float64) {
	r.capacity = max(bps, 0)
	r.rebalance()
}

// Snapshot and Totals mirror the gate's: admitted tenants by app, then the
// queue in promotion order.
func (r *refGate) Snapshot() []Status {
	out := make([]Status, 0, len(r.admitted)+len(r.queue))
	for _, t := range r.admitted {
		out = append(out, Status{
			App: t.app, Priority: t.pri.String(), State: StateAdmitted.String(),
			DemandBps: t.demand, CapBps: t.cap, Preemptions: t.preemptions,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	for _, t := range r.queue {
		out = append(out, Status{
			App: t.app, Priority: t.pri.String(), State: StateQueued.String(),
			DemandBps: t.demand, Preemptions: t.preemptions,
		})
	}
	return out
}

func (r *refGate) Totals() Totals {
	tt := Totals{
		Admitted: len(r.admitted), Queued: len(r.queue), CapacityBps: r.capacity,
		Preemptions: r.preemptions, Rejections: r.rejections,
	}
	for _, t := range r.admitted {
		tt.DemandBps += t.demand
		tt.AllocatedBps += t.cap
	}
	return tt
}

// TestGateIncrementalEquivalence feeds the same randomized operation
// sequence — admissions across priority classes, demand changes, releases,
// capacity resizes — to the gate and to refGate, and requires their
// externally visible state to stay identical after every operation: the
// admission decision itself, every tenant's state and cap, the queue
// order, and the totals. Demands are integers and class weights powers of
// two, so the two allocators' float arithmetic is exact and equality is
// bit-level. Run it with -race: the churn also exercises the
// coalescing-free notification path end to end.
func TestGateIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := Config{CapacityBps: 1e6, QueueCapacity: 32, MinShareFraction: 0.25}
	inc, ref := NewGate(cfg), newRefGate(cfg)
	pris := []spec.Priority{spec.Critical, spec.Standard, spec.BestEffort}

	compare := func(step int, op string) {
		t.Helper()
		si, sr := inc.Snapshot(), ref.Snapshot()
		if !reflect.DeepEqual(si, sr) {
			t.Fatalf("step %d (%s): snapshots diverged\ngate:      %+v\nreference: %+v", step, op, si, sr)
		}
		ti, tr := inc.Totals(), ref.Totals()
		// AllocatedBps is summed in map-iteration order, so the two can
		// differ in the last ulp even with bit-equal per-tenant caps (the
		// snapshot comparison above pins those). Compare it within epsilon
		// and everything else exactly.
		if math.Abs(ti.AllocatedBps-tr.AllocatedBps) > 1e-6*math.Max(1, tr.AllocatedBps) {
			t.Fatalf("step %d (%s): allocated diverged: gate %v, reference %v", step, op, ti.AllocatedBps, tr.AllocatedBps)
		}
		ti.AllocatedBps, tr.AllocatedBps = 0, 0
		if !reflect.DeepEqual(ti, tr) {
			t.Fatalf("step %d (%s): totals diverged\ngate:      %+v\nreference: %+v", step, op, ti, tr)
		}
	}

	for step := 0; step < 1500; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // admit: new app, or demand change on an existing one
			app := fmt.Sprintf("app-%03d", rng.Intn(80))
			pri := pris[rng.Intn(len(pris))]
			demand := float64(1 + rng.Intn(300000))
			di := inc.Admit(app, pri, demand, nil)
			dr := ref.Admit(app, pri, demand)
			if di.State != dr.State || di.New != dr.New || di.CapBps != dr.CapBps {
				t.Fatalf("step %d: admit(%s, %s, %v) decisions diverged: gate %+v, reference %+v",
					step, app, pri, demand, di, dr)
			}
			compare(step, "admit "+app)
		case 5, 6, 7: // release (promotes from the queue)
			app := fmt.Sprintf("app-%03d", rng.Intn(80))
			inc.Release(app)
			ref.Release(app)
			compare(step, "release "+app)
		case 8: // grow or shrink capacity (shrink can preempt)
			c := float64(100000 + rng.Intn(2000000))
			inc.SetCapacity(c)
			ref.SetCapacity(c)
			compare(step, fmt.Sprintf("capacity %v", c))
		default: // delta resize through AddCapacity
			d := float64(rng.Intn(200001) - 100000)
			if inc.CapacityBps()+d <= 0 {
				continue
			}
			inc.AddCapacity(d)
			ref.SetCapacity(ref.capacity + d)
			compare(step, fmt.Sprintf("capacity += %v", d))
		}
	}
	if tt := inc.Totals(); tt.Admitted == 0 || tt.Preemptions == 0 {
		t.Fatalf("totals %+v: the churn never left tenants admitted or never preempted; the test exercised too little", tt)
	}
}

// TestGateIncrementalNotificationsConsistent checks that every cap the
// incremental gate announces matches the cap it actually holds for that
// tenant once the dust settles — the fan-out may skip unchanged tenants
// but must never deliver a stale value last.
func TestGateIncrementalNotificationsConsistent(t *testing.T) {
	rec := newRecorder()
	g := NewGate(Config{CapacityBps: 10000, MinShareFraction: 0.1})
	g.Admit("a", spec.Standard, 8000, rec)
	g.Admit("b", spec.Standard, 8000, rec)
	g.Admit("c", spec.BestEffort, 8000, rec)
	g.SetCapacity(6000)
	g.SetCapacity(15000)
	rec.mu.Lock()
	caps := make(map[string]float64, len(rec.caps))
	for app, c := range rec.caps {
		caps[app] = c
	}
	rec.mu.Unlock()
	if len(caps) == 0 {
		t.Fatal("no cap notifications delivered under contention churn")
	}
	for app, announced := range caps {
		got, ok := g.CapBps(app)
		if !ok {
			continue // preempted after the notification: nothing to compare
		}
		if math.Abs(got-announced) > 1e-6 {
			t.Errorf("%s: last announced cap %v, gate holds %v", app, announced, got)
		}
	}
}
