package overlay

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/transport"
)

// sortLeafSet is the leaf set as it was before sorted insertion: append,
// sort.Slice by distance, trim, and membership through a deduplicating
// map. It survives only here, as the oracle the production leaf set must
// match operation for operation.
type sortLeafSet struct {
	owner   ID
	half    int
	cw, ccw []NodeInfo
}

func (l *sortLeafSet) add(info NodeInfo) bool {
	if info.ID == l.owner {
		return false
	}
	changed := false
	if l.insert(&l.cw, info, func(x ID) ID { return CWDist(l.owner, x) }) {
		changed = true
	}
	if l.insert(&l.ccw, info, func(x ID) ID { return CWDist(x, l.owner) }) {
		changed = true
	}
	return changed
}

func (l *sortLeafSet) insert(side *[]NodeInfo, info NodeInfo, dist func(ID) ID) bool {
	for _, e := range *side {
		if e.ID == info.ID {
			return false
		}
	}
	s := append(*side, info)
	sort.Slice(s, func(i, j int) bool {
		return dist(s[i].ID).Cmp(dist(s[j].ID)) < 0
	})
	if len(s) > l.half {
		s = s[:l.half]
	}
	*side = s
	for _, e := range *side {
		if e.ID == info.ID {
			return true
		}
	}
	return false
}

func (l *sortLeafSet) remove(id ID) bool {
	removed := false
	filter := func(side []NodeInfo) []NodeInfo {
		out := side[:0]
		for _, e := range side {
			if e.ID == id {
				removed = true
				continue
			}
			out = append(out, e)
		}
		return out
	}
	l.cw = filter(l.cw)
	l.ccw = filter(l.ccw)
	return removed
}

func (l *sortLeafSet) covers(key ID) bool {
	if len(l.cw) == 0 && len(l.ccw) == 0 {
		return true
	}
	for _, a := range l.cw {
		for _, b := range l.ccw {
			if a.ID == b.ID {
				return true
			}
		}
	}
	lo := l.owner
	if len(l.ccw) > 0 {
		lo = l.ccw[len(l.ccw)-1].ID
	}
	hi := l.owner
	if len(l.cw) > 0 {
		hi = l.cw[len(l.cw)-1].ID
	}
	return CWDist(lo, key).Cmp(CWDist(lo, hi)) <= 0
}

func (l *sortLeafSet) closest(key ID) (best NodeInfo, ok bool) {
	bestID := l.owner
	for _, e := range l.all() {
		if Closer(key, e.ID, bestID) {
			bestID = e.ID
			best = e
			ok = true
		}
	}
	return best, ok
}

// all is leafSet.all, which closest and size used to build a map through.
func (l *sortLeafSet) all() []NodeInfo { return (&leafSet{cw: l.cw, ccw: l.ccw}).all() }

func (l *sortLeafSet) size() int { return len(l.all()) }

// leafSetPair drives the production leaf set and the oracle with the same
// random operations. IDs come from a small pool, some of them right next
// to the owner on either side, so members are re-learned, removed and
// re-learned, sides fill and overflow, and the two sides meet around the
// ring.
type leafSetPair struct {
	rng  *rand.Rand
	got  *leafSet
	want *sortLeafSet
	pool []NodeInfo
}

func newLeafSetPair(rng *rand.Rand, half int) *leafSetPair {
	owner := RandomID(rng)
	p := &leafSetPair{
		rng:  rng,
		got:  newLeafSet(owner, 2*half),
		want: &sortLeafSet{owner: owner, half: half},
	}
	for i, n := 0, 1+rng.Intn(4*half+4); i < n; i++ {
		id := RandomID(rng)
		if rng.Intn(3) == 0 {
			// Within a few hundred IDs of the owner, on either side.
			id = owner
			id[IDBytes-1] += byte(rng.Intn(200) - 100)
			id[IDBytes-2] += byte(rng.Intn(3) - 1)
		}
		p.pool = append(p.pool, NodeInfo{ID: id, Addr: transport.Addr(fmt.Sprintf("sim://%d", i))})
	}
	if rng.Intn(8) == 0 {
		p.pool = append(p.pool, NodeInfo{ID: owner, Addr: "sim://owner"})
	}
	return p
}

// step applies one random learn or remove to both sets and reports a
// mismatch in the return value or the resulting sides.
func (p *leafSetPair) step(t *testing.T) {
	t.Helper()
	info := p.pool[p.rng.Intn(len(p.pool))]
	var got, want bool
	op := "add"
	if p.rng.Intn(4) == 0 {
		op = "remove"
		got, want = p.got.remove(info.ID), p.want.remove(info.ID)
	} else {
		got, want = p.got.add(info), p.want.add(info)
	}
	if got != want {
		t.Fatalf("%s(%v) = %v, oracle %v", op, info.ID, got, want)
	}
	if !sameSide(p.got.cw, p.want.cw) || !sameSide(p.got.ccw, p.want.ccw) {
		t.Fatalf("after %s(%v): sides\n cw %v\nccw %v\nwant\n cw %v\nccw %v", op, info.ID, p.got.cw, p.got.ccw, p.want.cw, p.want.ccw)
	}
}

func sameSide(a, b []NodeInfo) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// The leaf set keeps exactly the members, in exactly the order, that the
// sort-based insert kept, and reports the same changes, over 10 000 random
// learn/remove sequences at each of three half sizes.
func TestLeafSetInsertMatchesSortOracle(t *testing.T) {
	for _, half := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(int64(half)))
		for seq := 0; seq < 10000; seq++ {
			p := newLeafSetPair(rng, half)
			for i, n := 0, 1+rng.Intn(40); i < n; i++ {
				p.step(t)
			}
		}
	}
}

// covers, closest and size answer as the nested-loop and map-based
// versions did, for member IDs, the owner and random keys, on leaf sets
// built by random learn/remove sequences.
func TestLeafSetQueriesMatchOracles(t *testing.T) {
	for _, half := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(100 + int64(half)))
		for seq := 0; seq < 2000; seq++ {
			p := newLeafSetPair(rng, half)
			for i, n := 0, 1+rng.Intn(40); i < n; i++ {
				p.step(t)
				if s, want := p.got.size(), p.want.size(); s != want {
					t.Fatalf("size = %d, oracle %d", s, want)
				}
				keys := []ID{p.got.owner, RandomID(rng), p.pool[rng.Intn(len(p.pool))].ID}
				for _, key := range keys {
					if got, want := p.got.covers(key), p.want.covers(key); got != want {
						t.Fatalf("covers(%v) = %v, oracle %v (cw %v ccw %v)", key, got, want, p.got.cw, p.got.ccw)
					}
					gb, gok := p.got.closest(key)
					wb, wok := p.want.closest(key)
					if gok != wok || gb != wb {
						t.Fatalf("closest(%v) = %v %v, oracle %v %v", key, gb, gok, wb, wok)
					}
				}
			}
		}
	}
}

// The routing-path queries allocate nothing.
func TestLeafSetQueriesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newLeafSetPair(rng, 8)
	for i := 0; i < 200; i++ {
		p.step(t)
	}
	key := RandomID(rng)
	if allocs := testing.AllocsPerRun(100, func() {
		p.got.covers(key)
		p.got.closest(key)
		p.got.size()
	}); allocs != 0 {
		t.Fatalf("covers+closest+size allocate %v times, want 0", allocs)
	}
}

// learnRig is a node whose leaf set sides are full and whose routing table
// has contested slots, with every peer's RTT cached.
func learnRig(t *testing.T) (n *Node, held, rejected NodeInfo) {
	t.Helper()
	sim := netsim.New(1)
	nw := netsim.NewNetwork(sim, netsim.Config{})
	mem := transport.NewMemNetwork(nw)
	n = NewNode(HashID("learn-owner"), mem.Endpoint(nw.AddNode(1e8, 1e8)), clock.Sim{S: sim})
	n.ProximityAware = true
	for i := 0; i < 64; i++ {
		p := NodeInfo{ID: HashID(fmt.Sprintf("learn-%d", i)), Addr: transport.Addr(fmt.Sprintf("sim://%d", i))}
		n.rtts[p.ID] = 10 * time.Millisecond
		n.AddPeer(p)
	}
	held = n.leaf.cw[0]
	// A peer closer to neither side, whose routing-table slot is taken by
	// a nearer incumbent.
	fartherThan := func(side []NodeInfo, id ID, ccw bool) bool {
		return len(side) == n.leaf.half && n.leaf.dist(side[len(side)-1].ID, ccw).Cmp(n.leaf.dist(id, ccw)) < 0
	}
	for i := 0; ; i++ {
		c := NodeInfo{ID: HashID(fmt.Sprintf("far-%d", i)), Addr: "sim://far"}
		if n.rt.lookup(n.rt.slotFor(c.ID)) != nil && fartherThan(n.leaf.cw, c.ID, false) && fartherThan(n.leaf.ccw, c.ID, true) {
			n.rtts[c.ID] = time.Second
			return n, held, c
		}
	}
}

// Learning a peer the node already holds, or one it already turned away
// (leaf set full on both sides, routing slot kept by a nearer incumbent
// whose RTT is cached), costs no allocation: learn runs for every message
// received.
func TestLearnKnownPeerDoesNotAllocate(t *testing.T) {
	n, held, rejected := learnRig(t)
	before := n.rt.lookup(n.rt.slotFor(rejected.ID)).ID
	for name, p := range map[string]NodeInfo{"held": held, "rejected": rejected} {
		if allocs := testing.AllocsPerRun(100, func() { n.learn(p) }); allocs != 0 {
			t.Errorf("learn of a %s peer allocates %v times, want 0", name, allocs)
		}
	}
	for _, m := range n.leaf.all() {
		if m.ID == rejected.ID {
			t.Fatal("the farther candidate displaced a leaf-set member")
		}
	}
	if n.rt.lookup(n.rt.slotFor(rejected.ID)).ID != before {
		t.Fatal("the farther candidate displaced the incumbent")
	}
	if len(n.probing) != 0 {
		t.Fatalf("%d RTT probes started for peers whose RTTs were cached", len(n.probing))
	}
}

// A data frame from a peer the node holds, for an app it registered, is
// decoded without copying the app name or the sender out of the frame.
func TestParseHeaderOfKnownPeerDoesNotAllocate(t *testing.T) {
	n, held, _ := learnRig(t)
	n.Register("app", func(ID, NodeInfo, []byte) {})
	frame := dataEnvelope("app", held, []byte("body"))
	app, src, body, ok := parseHeader(frame, n)
	if !ok || app != "app" || src != held || string(body) != "body" {
		t.Fatalf("parseHeader = %q %+v %q %v", app, src, body, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { parseHeader(frame, n) }); allocs != 0 {
		t.Fatalf("parseHeader of a known peer allocates %v times, want 0", allocs)
	}
	// A stranger, or a known ID under another address, is copied out.
	moved := held
	moved.Addr = "sim://elsewhere"
	if _, src, _, _ := parseHeader(dataEnvelope("app", moved, nil), n); src != moved {
		t.Fatalf("sender %+v decoded as %+v", moved, src)
	}
}
