package tenant

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// wfApply computes the full allocation described by the treap's water
// level, indexed like demands — the incremental analogue of FairShares.
func wfApply(w *waterfill, demands []Demand, capacityBps float64) []float64 {
	level := w.level(capacityBps)
	out := make([]float64, len(demands))
	for i, d := range demands {
		if d.Bps <= 0 {
			continue
		}
		weight := d.Weight
		if weight <= 0 {
			weight = 1
		}
		e := wfEntry{app: d.App, demand: d.Bps, weight: weight, level: d.Bps / weight}
		out[i] = wfShare(&e, level)
	}
	return out
}

// TestWaterfillMatchesOracle churns a random tenant population through
// the treap — joins, leaves, weight changes, demand changes, capacity
// resizes — and after every operation requires the closed-form allocation
// at the treap's water level to be bit-identical to the FairShares oracle.
// Demands are integers and weights powers of two, so both paths' float
// arithmetic is exact and "bit-identical" is meaningful.
func TestWaterfillMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w waterfill
	byApp := map[string]Demand{} // current population
	capacity := 5e5

	check := func(step int) {
		t.Helper()
		demands := make([]Demand, 0, len(byApp))
		for _, d := range byApp {
			demands = append(demands, d)
		}
		sort.Slice(demands, func(i, j int) bool { return demands[i].App < demands[j].App })
		want := FairShares(demands, capacity)
		got := wfApply(&w, demands, capacity)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: %s share = %v, oracle %v (capacity %v, n=%d)",
					step, demands[i].App, got[i], want[i], capacity, len(demands))
			}
		}
		if w.size() != len(demands) {
			t.Fatalf("step %d: treap size %d, population %d", step, w.size(), len(demands))
		}
		var sum float64
		for _, d := range demands {
			sum += d.Bps
		}
		if w.totalDemand() != sum {
			t.Fatalf("step %d: totalDemand %v, want %v", step, w.totalDemand(), sum)
		}
	}

	weights := []float64{1, 2, 4}
	newDemand := func(app string) Demand {
		return Demand{App: app, Bps: float64(1 + rng.Intn(100000)), Weight: weights[rng.Intn(3)]}
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(byApp) == 0: // join
			app := fmt.Sprintf("app-%03d", rng.Intn(200))
			if _, ok := byApp[app]; ok {
				continue
			}
			d := newDemand(app)
			byApp[app] = d
			w.insert(d.App, d.Bps, d.Weight)
		case op < 6: // leave
			for app, d := range byApp {
				if !w.remove(app, d.Bps, d.Weight) {
					t.Fatalf("step %d: remove(%s) found nothing", step, app)
				}
				delete(byApp, app)
				break
			}
		case op < 8: // demand or weight change: remove + reinsert
			for app, d := range byApp {
				w.remove(app, d.Bps, d.Weight)
				nd := newDemand(app)
				byApp[app] = nd
				w.insert(nd.App, nd.Bps, nd.Weight)
				break
			}
		default: // capacity resize (integers keep arithmetic exact)
			capacity = float64(1 + rng.Intn(2000000))
		}
		check(step)
	}
}

// TestWaterfillFloatTolerance runs the same comparison with arbitrary
// float demands and weights, where summation order differs between the
// two paths, and requires agreement within a relative epsilon.
func TestWaterfillFloatTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var w waterfill
	demands := make([]Demand, 300)
	for i := range demands {
		demands[i] = Demand{
			App:    fmt.Sprintf("app-%03d", i),
			Bps:    rng.Float64()*9e5 + 17.3,
			Weight: rng.Float64()*7 + 0.25,
		}
		w.insert(demands[i].App, demands[i].Bps, demands[i].Weight)
	}
	for _, capacity := range []float64{1e3, 3.7e5, 8e6, 1e9} {
		want := FairShares(demands, capacity)
		got := wfApply(&w, demands, capacity)
		for i := range want {
			diff := math.Abs(got[i] - want[i])
			if diff > 1e-6*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("capacity %v: %s share %v vs oracle %v (diff %v)",
					capacity, demands[i].App, got[i], want[i], diff)
			}
		}
	}
}

// TestWaterfillSuffixAndCount pins the fan-out primitive: suffix visits
// exactly the entries with saturation level strictly above the bound, in
// key order.
func TestWaterfillSuffixAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w waterfill
	type ent struct {
		app   string
		level float64
	}
	var all []ent
	for i := 0; i < 500; i++ {
		app := fmt.Sprintf("app-%03d", i)
		demand := float64(1 + rng.Intn(1000))
		weight := []float64{1, 2, 4}[rng.Intn(3)]
		w.insert(app, demand, weight)
		all = append(all, ent{app: app, level: demand / weight})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].level != all[j].level {
			return all[i].level < all[j].level
		}
		return all[i].app < all[j].app
	})
	for _, bound := range []float64{0, 1, 37.5, 250, 1000, math.Inf(1)} {
		var want []string
		for _, e := range all {
			if e.level > bound {
				want = append(want, e.app)
			}
		}
		var got []string
		w.suffix(bound, func(e *wfEntry) { got = append(got, e.app) })
		if len(got) != len(want) {
			t.Fatalf("bound %v: suffix visited %d entries, want %d", bound, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bound %v: suffix[%d] = %s, want %s", bound, i, got[i], want[i])
			}
		}
	}
}

// TestWaterfillLevelEdgeCases pins the level() boundary behavior the gate
// relies on: empty set and surplus capacity are +Inf (everyone satisfied),
// non-positive capacity is 0.
func TestWaterfillLevelEdgeCases(t *testing.T) {
	var w waterfill
	if l := w.level(100); !math.IsInf(l, 1) {
		t.Fatalf("empty level = %v, want +Inf", l)
	}
	w.insert("a", 100, 1)
	if l := w.level(100); !math.IsInf(l, 1) {
		t.Fatalf("satisfied level = %v, want +Inf", l)
	}
	if l := w.level(0); l != 0 {
		t.Fatalf("zero-capacity level = %v, want 0", l)
	}
	if l := w.level(50); l != 50 {
		t.Fatalf("contended single level = %v, want 50", l)
	}
	w.insert("b", 300, 2) // level 150
	// capacity 200: a satisfied at level 100 (needs 100), b gets 2·L = 100
	// → L = 50? No: try L where a unsatisfied: L·(1+2) = 200 → L = 66.7 < 100
	// so a is unsatisfied too and both share the level.
	l := w.level(200)
	if math.Abs(l-200.0/3) > 1e-9 {
		t.Fatalf("level = %v, want 66.67", l)
	}
}
