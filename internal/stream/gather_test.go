package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/transport"
)

// stubLookup is one service's scripted directory answer.
type stubLookup struct {
	after time.Duration // 0 answers inside the Lookup call
	hosts []overlay.NodeInfo
	err   error
}

// stubDir is a Directory whose answers and their timing the test scripts.
type stubDir struct {
	clk     clock.Clock
	answers map[string]stubLookup
	lookups map[string]int
}

func (d *stubDir) Lookup(service string, _ time.Duration, cb func([]overlay.NodeInfo, error)) {
	d.lookups[service]++
	a := d.answers[service]
	if a.after == 0 {
		cb(a.hosts, a.err)
		return
	}
	d.clk.After(a.after, func() { cb(a.hosts, a.err) })
}

// gatherRig is engine 0 (the origin, with the stub directory) and worker
// engines on a simulated network with a uniform 10 ms one-way latency, so
// a stats round trip is 20 ms. asked[i] holds the simulator times at which
// engine i served a stats request.
type gatherRig struct {
	sim     *netsim.Simulator
	nw      *netsim.Network
	engines []*Engine
	infos   []overlay.NodeInfo
	dir     *stubDir
	asked   [][]time.Duration
	silent  map[int]bool // engines whose stats handler never answers
}

const gatherRTT = 20 * time.Millisecond

// near reports whether got is want plus at most a millisecond of
// serialization on the rig's 100 Mbps links.
func near(got, want time.Duration) bool { return got >= want && got < want+time.Millisecond }

func newGatherRig(t *testing.T, n int) *gatherRig {
	t.Helper()
	return newRig(t, n, func(a, b netsim.NodeID) time.Duration { return gatherRTT / 2 }, 1e8, Config{})
}

// newRig is newGatherRig with the one-way latency between engines a and b
// (their indices), the origin's downlink capacity and the engines'
// configuration (link capacities aside) chosen by the test.
func newRig(t *testing.T, n int, latency func(a, b netsim.NodeID) time.Duration, originDownBps float64, cfg Config) *gatherRig {
	t.Helper()
	sim := netsim.New(1)
	nw := netsim.NewNetwork(sim, netsim.Config{Latency: latency})
	mem := transport.NewMemNetwork(nw)
	clk := clock.Sim{S: sim}
	r := &gatherRig{
		sim:    sim,
		nw:     nw,
		dir:    &stubDir{clk: clk, answers: make(map[string]stubLookup), lookups: make(map[string]int)},
		asked:  make([][]time.Duration, n),
		silent: make(map[int]bool),
	}
	cfg.InBps, cfg.OutBps = 1e8, 1e8
	catalog := map[string]spec.ServiceDef{}
	for _, svc := range []string{"a", "b", "c", "d", "e"} {
		catalog[svc] = spec.ServiceDef{Name: svc, ProcPerUnit: time.Millisecond, RateRatio: 1, BytesRatio: 1}
	}
	for i := 0; i < n; i++ {
		down := 1e8
		if i == 0 {
			down = originDownBps
		}
		node := overlay.NewNode(overlay.HashID(fmt.Sprintf("gather-%d", i)), mem.Endpoint(nw.AddNode(1e8, down)), clk)
		var dir Directory
		if i == 0 {
			dir = r.dir
		}
		e := NewEngine(node, clk, dir, catalog, rand.New(rand.NewSource(int64(i))), cfg)
		i := i
		node.RegisterRequest(appStats, func(from overlay.NodeInfo, body []byte, respond func([]byte, string)) {
			r.asked[i] = append(r.asked[i], sim.Now())
			if !r.silent[i] {
				e.onStats(from, body, respond)
			}
		})
		r.engines = append(r.engines, e)
		r.infos = append(r.infos, node.Info())
	}
	for _, info := range r.infos[1:] {
		r.engines[0].node.AddPeer(info)
	}
	return r
}

func (r *gatherRig) hosts(idx ...int) []overlay.NodeInfo {
	out := make([]overlay.NodeInfo, 0, len(idx))
	for _, i := range idx {
		out = append(out, r.infos[i])
	}
	return out
}

func (r *gatherRig) totalAsked() int {
	n := 0
	for _, at := range r.asked {
		n += len(at)
	}
	return n
}

// gatherResult records every callback a gather makes.
type gatherResult struct {
	calls int
	at    time.Duration
	in    core.Input
	err   error
}

func (r *gatherRig) gather(req spec.Request, timeout time.Duration) *gatherResult {
	res := &gatherResult{}
	r.engines[0].gatherInput(req, timeout, func(in core.Input, err error) {
		res.calls++
		res.at, res.in, res.err = r.sim.Now(), in, err
	})
	return res
}

func candidateSet(in core.Input, svc string) map[overlay.ID]bool {
	set := make(map[overlay.ID]bool)
	for _, c := range in.Candidates[svc] {
		set[c.Info.ID] = true
	}
	return set
}

func gatherRequest(id string, chain ...string) spec.Request {
	return spec.Request{ID: id, UnitBytes: 1250, Substreams: []spec.Substream{{Services: chain, Rate: 10}}}
}

// A host several services offer is asked for its statistics exactly once,
// and is a candidate for each of them.
func TestGatherAsksSharedHostOnce(t *testing.T) {
	r := newGatherRig(t, 5)
	r.dir.answers["a"] = stubLookup{after: 5 * time.Millisecond, hosts: r.hosts(1, 2, 3)}
	r.dir.answers["b"] = stubLookup{after: 8 * time.Millisecond, hosts: r.hosts(2, 3, 4)}
	res := r.gather(gatherRequest("once", "a", "b"), time.Second)
	r.sim.Run()
	if res.calls != 1 || res.err != nil {
		t.Fatalf("%d callbacks, err = %v", res.calls, res.err)
	}
	for i := 1; i <= 4; i++ {
		if len(r.asked[i]) != 1 {
			t.Errorf("host %d served %d stats requests, want exactly 1", i, len(r.asked[i]))
		}
	}
	if r.dir.lookups["a"] != 1 || r.dir.lookups["b"] != 1 {
		t.Fatalf("lookups per service = %v, want one each", r.dir.lookups)
	}
	a, b := candidateSet(res.in, "a"), candidateSet(res.in, "b")
	if len(a) != 3 || len(b) != 3 || !a[r.infos[2].ID] || !b[r.infos[2].ID] || a[r.infos[4].ID] || b[r.infos[1].ID] {
		t.Fatalf("candidates a=%v b=%v do not match the lookups", a, b)
	}
	for _, c := range res.in.Candidates["b"] {
		if c.Report.InBpsCap != 1e8 {
			t.Fatalf("candidate %s carries no decoded report: %+v", c.Info.Addr, c.Report)
		}
	}
}

// Stats requests for the first service's hosts are on the wire before the
// slowest lookup returns, so the gather costs max(lookups) plus one round
// trip for the hosts only the slowest lookup named, not sum-of-phases.
func TestGatherPipelinesStatsBehindFirstLookup(t *testing.T) {
	r := newGatherRig(t, 5)
	const fast, slow = 5 * time.Millisecond, 400 * time.Millisecond
	r.dir.answers["a"] = stubLookup{after: fast, hosts: r.hosts(1, 2)}
	r.dir.answers["b"] = stubLookup{after: slow, hosts: r.hosts(2, 3)}
	res := r.gather(gatherRequest("pipe", "a", "b"), time.Second)
	r.sim.Run()
	if res.calls != 1 || res.err != nil {
		t.Fatalf("%d callbacks, err = %v", res.calls, res.err)
	}
	for _, i := range []int{1, 2} {
		if len(r.asked[i]) != 1 || !near(r.asked[i][0], fast+gatherRTT/2) {
			t.Errorf("host %d asked at %v, want %v: one hop after the fast lookup, long before the slow one (%v)",
				i, r.asked[i], fast+gatherRTT/2, slow)
		}
	}
	if len(r.asked[3]) != 1 || !near(r.asked[3][0], slow+gatherRTT/2) {
		t.Errorf("host 3 asked at %v, want %v", r.asked[3], slow+gatherRTT/2)
	}
	if !near(res.at, slow+gatherRTT) {
		t.Fatalf("gather finished at %v, want %v (slowest lookup + one round trip)", res.at, slow+gatherRTT)
	}
}

// A lookup error surfaces as ErrDiscovery wrapping the cause, exactly once,
// and only after the fetches already in flight have settled: nothing calls
// back into a finished submission. Lookups that land after the error fetch
// nothing.
func TestGatherLookupErrorReportedOnceAfterFetchesSettle(t *testing.T) {
	r := newGatherRig(t, 5)
	cause := errors.New("dht: get timed out")
	r.dir.answers["a"] = stubLookup{after: 5 * time.Millisecond, hosts: r.hosts(1, 2)}
	r.dir.answers["b"] = stubLookup{after: 10 * time.Millisecond, err: cause}
	r.dir.answers["c"] = stubLookup{after: 12 * time.Millisecond, hosts: r.hosts(3, 4)}
	res := r.gather(gatherRequest("fail", "a", "b", "c"), time.Second)
	r.sim.RunUntil(20 * time.Millisecond)
	if res.calls != 0 {
		t.Fatalf("callback ran at %v, with every lookup answered but service a's fetches still in flight", res.at)
	}
	r.sim.Run()
	if res.calls != 1 {
		t.Fatalf("%d callbacks, want exactly 1", res.calls)
	}
	if !errors.Is(res.err, ErrDiscovery) || !errors.Is(res.err, cause) {
		t.Fatalf("err = %v, want ErrDiscovery wrapping %v", res.err, cause)
	}
	if !near(res.at, 5*time.Millisecond+gatherRTT) {
		t.Fatalf("error reported at %v, want %v (when service a's fetches settled)", res.at, 5*time.Millisecond+gatherRTT)
	}
	if len(r.asked[1]) != 1 || len(r.asked[2]) != 1 || len(r.asked[3])+len(r.asked[4]) != 0 {
		t.Fatalf("stats requests served: %v; want hosts 1 and 2 once, 3 and 4 never", r.asked)
	}
}

// A host that does not answer within the timeout is pruned from the
// origin's overlay state and is not a candidate; the others are.
func TestGatherTimedOutHostPrunedAndExcluded(t *testing.T) {
	r := newGatherRig(t, 4)
	r.silent[2] = true
	r.dir.answers["a"] = stubLookup{hosts: r.hosts(1, 2, 3)}
	known := r.engines[0].node.NumKnown()
	res := r.gather(gatherRequest("silent", "a"), 300*time.Millisecond)
	r.sim.Run()
	if res.calls != 1 || res.err != nil {
		t.Fatalf("%d callbacks, err = %v", res.calls, res.err)
	}
	if res.at != 300*time.Millisecond {
		t.Fatalf("gather finished at %v, want the 300ms timeout", res.at)
	}
	set := candidateSet(res.in, "a")
	if len(set) != 2 || set[r.infos[2].ID] || !set[r.infos[1].ID] || !set[r.infos[3].ID] {
		t.Fatalf("candidates = %v, want hosts 1 and 3 only", set)
	}
	if got := r.engines[0].node.NumKnown(); got != known-1 {
		t.Fatalf("origin knows %d peers after the timeout, want %d (the silent host pruned)", got, known-1)
	}
}

// The origin's own report comes from its monitor and a host the stats
// provider covers from the provider: neither costs an RPC, and with a
// synchronous directory the whole gather finishes inside the call.
func TestGatherLocalAndProviderHitsCostNoRPC(t *testing.T) {
	r := newGatherRig(t, 3)
	r.dir.answers["a"] = stubLookup{hosts: r.hosts(0, 1)}
	provided := monitor.Report{InBpsCap: 7e5, OutBpsCap: 7e5, DropRatio: 0.25}
	r.engines[0].SetStatsProvider(func(id overlay.ID) (monitor.Report, bool) {
		return provided, id == r.infos[1].ID
	})
	res := r.gather(gatherRequest("local", "a"), time.Second)
	if res.calls != 1 || res.err != nil {
		t.Fatalf("gather over local state did not finish synchronously: %d callbacks, err = %v", res.calls, res.err)
	}
	r.sim.Run()
	if n := r.totalAsked(); n != 0 {
		t.Fatalf("%d stats RPCs served, want 0", n)
	}
	cands := res.in.Candidates["a"]
	if len(cands) != 2 {
		t.Fatalf("%d candidates, want the origin and the provided host", len(cands))
	}
	for _, c := range cands {
		switch c.Info.ID {
		case r.infos[0].ID:
			if c.Report.InBpsCap != 1e8 {
				t.Errorf("origin's report is not its own monitor's: %+v", c.Report)
			}
		case r.infos[1].ID:
			if c.Report.DropRatio != 0.25 || c.Report.InBpsCap != 7e5 {
				t.Errorf("provided host's report is not the provider's: %+v", c.Report)
			}
		}
	}
}

// Submit without a directory fails with the typed sentinel before any
// admission or network work.
func TestSubmitWithoutDirectory(t *testing.T) {
	r := newGatherRig(t, 2)
	var err error
	r.engines[1].Submit(gatherRequest("nodir", "a"), &core.MinCost{}, time.Second, func(_ *core.ExecutionGraph, e error) { err = e })
	if !errors.Is(err, ErrNoDirectory) {
		t.Fatalf("err = %v, want ErrNoDirectory", err)
	}
}

// pipelinedRig scripts a fast service with hosts 1, 2 and a slow one with
// hosts 2, 3: a caller that goes through gatherInput asks host 2 once and
// has asked hosts 1 and 2 long before the slow lookup lands.
func pipelinedRig(t *testing.T) (r *gatherRig, slow time.Duration) {
	r = newGatherRig(t, 4)
	slow = 400 * time.Millisecond
	r.dir.answers["a"] = stubLookup{after: 5 * time.Millisecond, hosts: r.hosts(1, 2)}
	r.dir.answers["b"] = stubLookup{after: slow, hosts: r.hosts(2, 3)}
	return r, slow
}

func (r *gatherRig) checkPipelined(t *testing.T, who string, since, slow time.Duration) {
	t.Helper()
	var served [4][]time.Duration
	for i := range served {
		for _, at := range r.asked[i] {
			if at >= since {
				served[i] = append(served[i], at-since)
			}
		}
	}
	for i := 1; i <= 3; i++ {
		if len(served[i]) != 1 {
			t.Fatalf("%s: host %d served %d stats requests, want exactly 1 (%v)", who, i, len(served[i]), served)
		}
	}
	if served[1][0] >= slow || served[2][0] >= slow {
		t.Fatalf("%s: hosts 1 and 2 asked at %v and %v, not before the slow lookup at %v: discovery and stats are not pipelined",
			who, served[1][0], served[2][0], slow)
	}
}

// Reallocate gathers through the same pipelined function as Submit.
func TestReallocateUsesPipelinedGather(t *testing.T) {
	r, slow := pipelinedRig(t)
	origin := r.engines[0]
	var graph *core.ExecutionGraph
	origin.Submit(gatherRequest("realloc", "a", "b"), &core.MinCost{}, time.Second, func(g *core.ExecutionGraph, err error) {
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		graph = g
	})
	r.sim.RunUntil(2 * time.Second)
	if graph == nil {
		t.Fatal("submit did not compose")
	}
	r.checkPipelined(t, "Submit", 0, slow)

	since := r.sim.Now()
	var done bool
	var rerr error
	degraded := map[overlay.ID]bool{graph.Placements[0].Host.ID: true}
	origin.Reallocate("realloc", degraded, nil, func(err error) { done, rerr = true, err })
	r.sim.RunUntil(since + 2*time.Second)
	if !done {
		t.Fatal("Reallocate never finished")
	}
	if rerr != nil && !errors.Is(rerr, core.ErrNoFeasiblePlacement) && !errors.Is(rerr, control.ErrUnknownApp) {
		t.Fatalf("Reallocate: %v", rerr)
	}
	r.checkPipelined(t, "Reallocate", since, slow)
	origin.Teardown(graph, time.Second)
	r.sim.RunUntil(r.sim.Now() + time.Second)
}

// The remote side of a federation hand-off gathers through it too.
func TestFederationComposeUsesPipelinedGather(t *testing.T) {
	r, slow := pipelinedRig(t)
	origin := r.infos[0]
	endpoint := monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8}
	var frag *core.ExecutionGraph
	var ferr error
	r.engines[0].composeForFederation(federation.HandoffRequest{
		App: "fed", Request: gatherRequest("fed", "a", "b"), Composer: "mincost",
		Source: origin, Dest: origin, SourceReport: endpoint, DestReport: endpoint,
	}, func(g *core.ExecutionGraph, err error) { frag, ferr = g, err })
	r.sim.Run()
	if ferr != nil || frag == nil || len(frag.Placements) != 2 {
		t.Fatalf("fragment = %+v, err = %v; want two placements", frag, ferr)
	}
	r.checkPipelined(t, "composeForFederation", 0, slow)

	// And its discovery failures carry the same sentinel.
	r.dir.answers["b"] = stubLookup{err: errors.New("no route")}
	r.engines[0].composeForFederation(federation.HandoffRequest{
		Request: gatherRequest("fed2", "a", "b"), Composer: "mincost",
	}, func(_ *core.ExecutionGraph, err error) { ferr = err })
	r.sim.Run()
	if !errors.Is(ferr, ErrDiscovery) {
		t.Fatalf("err = %v, want ErrDiscovery", ferr)
	}
}
