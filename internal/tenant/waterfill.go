package tenant

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file is the incremental counterpart of the FairShares oracle: the
// admitted positive demands in one slice sorted by saturation level
// (demand/weight, ties broken by app — the oracle's sort order). A
// weighted max-min allocation is fully described by the final water
// level L: a tenant saturating at l = d/w receives d when l ≤ L and L·w
// otherwise. In that order L is one prefix-sum scan, and the tenants
// whose share can have moved are a tail of the slice. A join or leave is
// a binary search plus a copy, sized for the tens of applications a
// contended deployment admits. Demands are integer bit rates and class
// weights 1, 2 and 4, so every key-ordered sum is exact.

// wfEntry is one admitted positive demand.
type wfEntry struct {
	app    string
	demand float64
	weight float64
	level  float64 // demand/weight: the water level at which it saturates
}

// wfCmp orders entries by (level, app), matching the oracle's sort.
func wfCmp(a, b wfEntry) int {
	return cmp.Or(cmp.Compare(a.level, b.level), strings.Compare(a.app, b.app))
}

// waterfill is the incremental allocator state: the entries sorted by
// wfCmp. The zero value is an empty set. Not safe for concurrent use (the
// Gate's lock guards it).
type waterfill struct {
	entries []wfEntry
}

func (w *waterfill) size() int { return len(w.entries) }

// totalDemand is the aggregate demand of entries in the set.
func (w *waterfill) totalDemand() float64 {
	var d float64
	for i := range w.entries {
		d += w.entries[i].demand
	}
	return d
}

// insert adds an entry; the (level, app) key must not already be present
// (the gate keys tenants uniquely by app and removes before re-inserting
// on demand changes).
func (w *waterfill) insert(app string, demand, weight float64) {
	e := wfEntry{app: app, demand: demand, weight: weight, level: demand / weight}
	i, _ := slices.BinarySearchFunc(w.entries, e, wfCmp)
	w.entries = slices.Insert(w.entries, i, e)
}

// remove deletes the entry keyed by (demand/weight, app); it reports
// whether the entry was present.
func (w *waterfill) remove(app string, demand, weight float64) bool {
	i, ok := slices.BinarySearchFunc(w.entries, wfEntry{app: app, level: demand / weight}, wfCmp)
	if ok {
		w.entries = slices.Delete(w.entries, i, i+1)
	}
	return ok
}

// level returns the final water level L for the given capacity: a tenant
// saturating at l receives its demand when l ≤ L and L·weight otherwise.
// All demands satisfied is +Inf; non-positive capacity is 0.
//
// Walking the order, entry i is satisfied iff (capacity − D_<i)/(W − W_<i)
// ≥ l_i, where D_<i/W_<i are the demand/weight prefix sums before i. That
// predicate is monotone along the sorted order (once it fails it stays
// failed: every later entry saturates at a level at least as high while
// the numerator only shrinks), so the satisfied prefix ends at the first
// entry that fails it.
func (w *waterfill) level(capacity float64) float64 {
	if len(w.entries) == 0 {
		return math.Inf(1)
	}
	if capacity <= 0 {
		return 0
	}
	var totalD, totalW float64
	for i := range w.entries {
		totalD += w.entries[i].demand
		totalW += w.entries[i].weight
	}
	if totalD <= capacity {
		return math.Inf(1)
	}
	var prefD, prefW float64 // sums over the satisfied prefix
	for i := range w.entries {
		e := &w.entries[i]
		restW := totalW - prefW
		if restW <= 0 || (capacity-prefD)/restW < e.level {
			break
		}
		prefD += e.demand
		prefW += e.weight
	}
	restW := totalW - prefW
	if restW <= 0 { // everything satisfied: only float drift gets here
		return math.Inf(1)
	}
	l := (capacity - prefD) / restW
	if l < 0 || math.IsNaN(l) {
		l = 0
	}
	return l
}

// wfShare is the closed-form share of one entry at water level L,
// clamped to [0, demand] against float drift.
func wfShare(e *wfEntry, level float64) float64 {
	if e.level <= level {
		return e.demand
	}
	s := level * e.weight
	if s > e.demand {
		return e.demand
	}
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	return s
}

// maxEntry returns the entry with the highest saturation level (the
// worst share/demand ratio when unsatisfied), or nil when empty.
func (w *waterfill) maxEntry() *wfEntry {
	if len(w.entries) == 0 {
		return nil
	}
	return &w.entries[len(w.entries)-1]
}

// suffix returns, in key order, every entry whose saturation level is
// strictly above bound — for two water levels both ≥ bound these are the
// only entries whose share can differ. The result aliases the set: it is
// valid until the next insert or remove.
func (w *waterfill) suffix(bound float64) []wfEntry {
	i := sort.Search(len(w.entries), func(i int) bool { return w.entries[i].level > bound })
	return w.entries[i:]
}
