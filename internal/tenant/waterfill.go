package tenant

import "math"

// This file is the incremental counterpart of the FairShares oracle: a
// persistent ordered structure over the admitted demand set keyed by
// saturation level (demand/weight, ties broken by app — exactly the
// oracle's sort order) with cached subtree demand/weight sums. The key
// property it exploits is that a weighted max-min allocation is fully
// described by one number, the final water level L: a tenant saturating
// at level l = d/w receives d when l ≤ L and L·w otherwise. Keeping the
// set sorted by l with prefix sums makes L an O(log n) binary descent —
// so a single join/leave/weight-change costs O(log n) instead of
// re-sorting the world — and makes "every tenant whose share can have
// moved" a suffix of the order, so cap fan-out costs O(changed).
//
// The structure is a treap: priorities are derived deterministically
// from the app name (FNV-1a) so the tree shape — and therefore float
// summation order — is reproducible across runs for the same tenant set.

// wfEntry is one admitted positive demand.
type wfEntry struct {
	app    string
	demand float64
	weight float64
	level  float64 // demand/weight: the water level at which it saturates
}

type wfNode struct {
	wfEntry
	prio        uint64
	left, right *wfNode
	sumD, sumW  float64 // subtree demand/weight sums
	size        int
}

// pull re-derives the subtree aggregates from the children.
func (n *wfNode) pull() {
	n.sumD, n.sumW, n.size = n.demand, n.weight, 1
	if l := n.left; l != nil {
		n.sumD += l.sumD
		n.sumW += l.sumW
		n.size += l.size
	}
	if r := n.right; r != nil {
		n.sumD += r.sumD
		n.sumW += r.sumW
		n.size += r.size
	}
}

// wfKeyLess orders entries by (level, app), matching the oracle's sort.
func wfKeyLess(l1 float64, a1 string, l2 float64, a2 string) bool {
	if l1 != l2 {
		return l1 < l2
	}
	return a1 < a2
}

// wfPrio derives the treap priority from the app name (inline FNV-1a,
// allocation-free).
func wfPrio(app string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(app); i++ {
		h ^= uint64(app[i])
		h *= prime64
	}
	return h
}

// wfSplit partitions t into keys < (level, app) and keys ≥ (level, app).
func wfSplit(t *wfNode, level float64, app string) (a, b *wfNode) {
	if t == nil {
		return nil, nil
	}
	if wfKeyLess(t.level, t.app, level, app) {
		a = t
		t.right, b = wfSplit(t.right, level, app)
		t.pull()
		return a, b
	}
	b = t
	a, t.left = wfSplit(t.left, level, app)
	t.pull()
	return a, b
}

// wfSplitAfter partitions t into keys ≤ (level, app) and keys > it.
func wfSplitAfter(t *wfNode, level float64, app string) (a, b *wfNode) {
	if t == nil {
		return nil, nil
	}
	if wfKeyLess(level, app, t.level, t.app) {
		b = t
		a, t.left = wfSplitAfter(t.left, level, app)
		t.pull()
		return a, b
	}
	a = t
	t.right, b = wfSplitAfter(t.right, level, app)
	t.pull()
	return a, b
}

func wfMerge(a, b *wfNode) *wfNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio >= b.prio {
		a.right = wfMerge(a.right, b)
		a.pull()
		return a
	}
	b.left = wfMerge(a, b.left)
	b.pull()
	return b
}

// waterfill is the incremental allocator state. The zero value is an
// empty set. Not safe for concurrent use (the Gate's lock guards it).
type waterfill struct {
	root *wfNode
}

func (w *waterfill) size() int {
	if w.root == nil {
		return 0
	}
	return w.root.size
}

// totalDemand is the aggregate demand of entries in the set.
func (w *waterfill) totalDemand() float64 {
	if w.root == nil {
		return 0
	}
	return w.root.sumD
}

// insert adds an entry; the (level, app) key must not already be present
// (the gate keys tenants uniquely by app and removes before re-inserting
// on demand changes).
func (w *waterfill) insert(app string, demand, weight float64) {
	n := &wfNode{
		wfEntry: wfEntry{app: app, demand: demand, weight: weight, level: demand / weight},
		prio:    wfPrio(app),
	}
	n.pull()
	a, b := wfSplit(w.root, n.level, n.app)
	w.root = wfMerge(wfMerge(a, n), b)
}

// remove deletes the entry keyed by (demand/weight, app); it reports
// whether the entry was present.
func (w *waterfill) remove(app string, demand, weight float64) bool {
	level := demand / weight
	a, rest := wfSplit(w.root, level, app)
	mid, b := wfSplitAfter(rest, level, app)
	w.root = wfMerge(a, b)
	return mid != nil
}

// level returns the final water level L for the given capacity: a tenant
// saturating at l receives its demand when l ≤ L and L·weight otherwise.
// All demands satisfied is +Inf; non-positive capacity is 0.
//
// The computation is an O(log n) binary descent: walking the order, entry
// i is satisfied iff (capacity − D_<i)/(W − W_<i) ≥ l_i, where D_<i/W_<i
// are the demand/weight prefix sums before i. That predicate is monotone
// along the sorted order (once it fails it stays failed: every later
// entry saturates at a level at least as high while the numerator only
// shrinks), so the satisfied prefix boundary is found by descending the
// tree over the cached sums.
func (w *waterfill) level(capacity float64) float64 {
	if w.root == nil {
		return math.Inf(1)
	}
	if capacity <= 0 {
		return 0
	}
	if w.root.sumD <= capacity {
		return math.Inf(1)
	}
	totalW := w.root.sumW
	var prefD, prefW float64 // sums over the satisfied prefix found so far
	n := w.root
	for n != nil {
		leftD, leftW := 0.0, 0.0
		if n.left != nil {
			leftD, leftW = n.left.sumD, n.left.sumW
		}
		restW := totalW - (prefW + leftW)
		if restW > 0 && (capacity-(prefD+leftD))/restW >= n.level {
			// n is satisfied; so is everything before it. The boundary
			// is to the right.
			prefD += leftD + n.demand
			prefW += leftW + n.weight
			n = n.right
			continue
		}
		n = n.left
	}
	restW := totalW - prefW
	if restW <= 0 {
		// Everything satisfied — but then sumD ≤ capacity would have
		// returned above; guard against float drift.
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
	n := w.root
	if n == nil {
		return nil
	}
	for n.right != nil {
		n = n.right
	}
	return &n.wfEntry
}

// suffix visits, in key order, every entry whose saturation level is
// strictly above bound — for two water levels both ≥ bound these are the
// only entries whose share can differ. Costs O(log n + visited).
func (w *waterfill) suffix(bound float64, visit func(*wfEntry)) {
	wfSuffix(w.root, bound, visit)
}

func wfSuffix(n *wfNode, bound float64, visit func(*wfEntry)) {
	if n == nil {
		return
	}
	if n.level > bound {
		wfSuffix(n.left, bound, visit)
		visit(&n.wfEntry)
		wfAll(n.right, visit) // every right key sorts above n: all qualify
		return
	}
	// n and its whole left subtree saturate at or below bound.
	wfSuffix(n.right, bound, visit)
}

func wfAll(n *wfNode, visit func(*wfEntry)) {
	if n == nil {
		return
	}
	wfAll(n.left, visit)
	visit(&n.wfEntry)
	wfAll(n.right, visit)
}
