package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/metrics"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
)

// simWorkload is one simulator workload: a deployment recipe and the shape
// of one segment of work on it. A segment builds a fresh deployment from
// its own seed and runs `cycles` closed-loop cycles on it; a cycle submits
// `apps` applications `gap` apart, waits for the first unit at every sink,
// streams for `window`, stops the sources, drains, checks unit
// conservation and tears everything down. The simulator is single-threaded
// by construction, so these are the single-threaded baseline.
type simWorkload struct {
	name  string
	short string // request-ID prefix
	why   string

	nodes          int
	minBps, maxBps float64
	// paper selects the paper's evaluation deployment (what the rasc facade
	// configures): bounded link backlog, congestion jitter, ±20 % processing
	// jitter, heterogeneous CPUs.
	paper     bool
	plane     stream.DataPlaneConfig
	contended bool // admission gate and adaptation control plane on

	// cycles per segment; apps per cycle (at most, when loadTarget sizes the
	// cycle to the deployment's capacity: see plan).
	cycles, apps int
	loadTarget   float64
	gap, window  time.Duration
	// fixed is how many segments the exact (virtual-clock and count)
	// metrics are taken over; the run always completes that many, so those
	// metrics depend on the seed alone and not on how fast the host is.
	fixed int
	// traced is how many of those the traced run repeats (each one twice:
	// untraced, then traced).
	traced int
	gen    func(rng *rand.Rand, id string, k, nodes int) plannedApp
}

func genStream(rng *rand.Rand, id string, _, nodes int) plannedApp { return streamApp(rng, id, nodes) }

var simWorkloads = []*simWorkload{
	{
		name: "sim-stream", short: "st",
		why:   "data path on the zero-config per-unit JSON plane: 16 nodes, uncongested links, 8 substreams x 3 services at 100 units/s",
		nodes: 16, minBps: 2e8, maxBps: 5e8,
		cycles: 4, apps: 1, window: time.Second, fixed: 40, traced: 10, gen: genStream,
	},
	{
		name: "sim-stream-batched", short: "sb",
		why:   "same deployment, seed and traffic on the batched binary plane (32-unit batches, 2 ms flush, 4 shards)",
		nodes: 16, minBps: 2e8, maxBps: 5e8, plane: stream.DefaultDataPlane(),
		cycles: 4, apps: 1, window: time.Second, fixed: 40, traced: 10, gen: genStream,
	},
	{
		name: "sim-compose", short: "co",
		why:   "control path: closed loop of submit, first unit, teardown on the 32-node paper deployment, one client",
		nodes: 32, minBps: 1.5e5, maxBps: 1.2e6, paper: true,
		cycles: 75, apps: 1, window: time.Second, fixed: 16, traced: 6, gen: composeApp,
	},
	{
		name: "sim-contended", short: "ct",
		why:   "paper regime: about 36 mixed-priority apps oversubscribe the 32-node deployment with admission and adaptation on",
		nodes: 32, minBps: 1.5e5, maxBps: 1.2e6, paper: true, contended: true,
		cycles: 1, apps: 72, loadTarget: 0.9, gap: 400 * time.Millisecond, window: 20 * time.Second, fixed: 14, traced: 6, gen: contendedApp,
	},
}

// shortened returns the CI-sized variant of the workload: same deployment
// and generators, less work per segment and fewer segments.
func (w *simWorkload) shortened() *simWorkload {
	s := *w
	s.fixed, s.traced = 2, 2
	if s.cycles > 10 {
		s.cycles = 10
	}
	if s.cycles > 2 && s.apps == 1 && s.window > time.Second {
		s.cycles = 2
	}
	if s.apps > 12 {
		s.apps, s.loadTarget = 12, 0
	}
	if s.window > 5*time.Second {
		s.window = 5 * time.Second
	}
	return &s
}

const rpcTimeout = 10 * time.Second

func (w *simWorkload) topology(seed int64) *netsim.Topology {
	return netsim.PlanetLabTopology(netsim.TopologyConfig{Nodes: w.nodes, MinBps: w.minBps, MaxBps: w.maxBps}, seed)
}

func (w *simWorkload) options(seed int64) deploy.SystemOptions {
	o := deploy.SystemOptions{
		Nodes: w.nodes, Seed: seed,
		Topology:         w.topology(seed),
		KeepDelaySamples: true,
		DataPlane:        w.plane,
	}
	if w.paper {
		o.MaxLinkBacklog = 300 * time.Millisecond
		o.CongestionJitter = 0.5
		o.ProcJitter = 0.2
		o.HeterogeneousCPU = true
	}
	if w.contended {
		o.Tenancy = &tenant.Config{}
		o.Adaptation = &stream.AdaptationConfig{}
	}
	return o
}

// runningApp is one submission being followed through a cycle.
type runningApp struct {
	plannedApp
	eng *stream.Engine

	done     bool
	err      error
	submitV  time.Duration // simulator time of the Submit call
	doneV    time.Duration // … of the callback
	firstV   time.Duration // … when every sink had its first unit
	submitW  time.Time     // host time of the Submit call
	firstW   time.Duration // host time spent until the first unit
	hasFirst bool
	gaveUp   bool
	submitH  int64 // the recorder's host clock at the same two instants
	firstH   int64

	// sinks holds, per substream, every sink object the origin has had for
	// the flow: a full recompose replaces the sink and restarts its
	// counters, so delivery is summed over all of them.
	sinks    [][]*stream.Sink
	winStart int64

	enterV, exitV time.Duration // decorated Compose entered / returned (traced run)
	composeSeen   bool
}

// waiting reports whether the app is still owed its composition or its
// first unit.
func (a *runningApp) waiting() bool {
	return !a.gaveUp && !a.hasFirst && (!a.done || a.err == nil)
}

func anyWaiting(apps []*runningApp) bool {
	for _, a := range apps {
		if a.waiting() {
			return true
		}
	}
	return false
}

// poll refreshes the app's sink list and returns units delivered so far and
// whether every substream has delivered at least one.
func (a *runningApp) poll() (delivered int64, all bool) {
	all = true
	for l := range a.Req.Substreams {
		if s := a.eng.Sink(a.Req.ID, l); s != nil {
			if n := len(a.sinks[l]); n == 0 || a.sinks[l][n-1] != s {
				a.sinks[l] = append(a.sinks[l], s)
			}
		}
		var got int64
		for _, s := range a.sinks[l] {
			got += s.Received
		}
		if got == 0 {
			all = false
		}
		delivered += got
	}
	return delivered, all
}

// layerCounts is what the traced run reads from the layers of one segment,
// on top of the end-to-end tallies.
type layerCounts struct {
	netBytes                           int64
	laxity, queueFull, uplink, downlnk int64
	phases                             map[string][]float64 // virtual ms per submit
	composeUs                          []float64
	composeCalls, infeasible           int
	stageLatencyMs                     []float64
	gate                               tenant.Totals
	gateStats                          tenant.GateStats
	decisions                          int
}

// segment is the tally of one segment.
type segment struct {
	setupS, wallS, cpuS float64
	winWallS            float64 // host seconds spent simulating the streaming windows
	speed               float64 // host speed while the segment ran, 1 = the reference host

	submitted, composed, unexpected int
	firstUnitMs                     []float64 // virtual
	submitHostMs                    []float64 // host wall, single-app cycles only
	emitted, forwarded              int64
	delivered, timely               int64
	winDelivered                    int64
	winRequested                    float64
	unaccounted                     int64 // emitted - delivered - dropped after the drain, summed over flows
	delays                          metrics.Histogram
	violations                      []string
	layer                           *layerCounts
}

// tracer is what a traced segment attaches: the benchmark's own span
// recorder and the program's existing per-unit event buffer.
type tracer struct {
	rec *recorder
	buf *trace.Buffer
}

// timedComposer decorates the composer a workload submits with (the one
// interface the engine already accepts from outside). It times every
// Compose call and notes the simulator time at which the call was entered
// and left, which is what splits a Submit into phases without touching the
// engine.
type timedComposer struct {
	core.Composer
	run  *segRun
	apps map[string]*runningApp
}

func (c *timedComposer) Compose(in core.Input) (*core.ExecutionGraph, error) {
	lc, rec, sim := c.run.seg.layer, c.run.tr.rec, c.run.sys.Sim
	id := rec.begin("core.Compose", in.Request.ID)
	enter, t0 := sim.Now(), time.Now()
	g, err := c.Composer.Compose(in)
	lc.composeUs = append(lc.composeUs, float64(time.Since(t0))/1e3)
	rec.end(id)
	lc.composeCalls++
	if errors.Is(err, core.ErrNoFeasiblePlacement) {
		lc.infeasible++
	}
	if a := c.apps[in.Request.ID]; a != nil && !a.composeSeen {
		a.composeSeen, a.enterV, a.exitV = true, enter, sim.Now()
	}
	return g, err
}

// segRun is the state of one segment in progress.
type segRun struct {
	w        *simWorkload
	sys      *deploy.System
	tr       *tracer
	seg      *segment
	composer core.Composer
	timed    *timedComposer
	root     int // span id
}

// runSegment builds a fresh deployment from the segment's seed and runs the
// workload's cycles on it. tr is nil on the untraced run.
func (w *simWorkload) runSegment(seed int64, index int, tr *tracer) *segment {
	seg := &segment{}
	r := &segRun{w: w, tr: tr, seg: seg, composer: &core.MinCost{}}
	if tr == nil {
		r.tr = &tracer{} // a nil recorder records nothing
	} else {
		seg.layer = &layerCounts{phases: make(map[string][]float64)}
		r.timed = &timedComposer{Composer: r.composer, run: r, apps: make(map[string]*runningApp)}
		r.composer = r.timed
	}
	rec := r.tr.rec
	if rec != nil {
		rec.vnow = func() time.Duration {
			if r.sys == nil {
				return 0
			}
			return r.sys.Sim.Now()
		}
	}
	r.root = rec.begin("segment", fmt.Sprint(index))
	defer rec.end(r.root)

	sp := rec.begin("deploy.NewSystem", "")
	t0 := time.Now()
	r.sys = deploy.NewSystem(w.options(segmentSeed(seed, index)))
	seg.setupS = time.Since(t0).Seconds()
	rec.end(sp)
	if tr != nil {
		for _, e := range r.sys.Engines {
			e.SetTracer(tr.buf)
		}
	}

	plan := w.plan(seed, index)
	var bytes0 int64
	if seg.layer != nil {
		bytes0 = r.bytesSent()
	}
	cpu0, wall0 := cpuTime(), time.Now()
	for _, apps := range plan {
		r.cycle(apps)
	}
	seg.wallS = time.Since(wall0).Seconds()
	seg.cpuS = (cpuTime() - cpu0).Seconds()
	r.checkClean()
	if lc := seg.layer; lc != nil {
		lc.netBytes = r.bytesSent() - bytes0
		for _, e := range r.sys.Engines {
			lc.laxity += e.DropsLaxity
			lc.queueFull += e.DropsQueueFull
			lc.uplink += e.DropsUplink
			lc.downlnk += e.DropsDownlink
		}
		lc.decisions = len(r.sys.Journal.Decisions())
	}
	return seg
}

func (r *segRun) bytesSent() int64 {
	var n int64
	for _, id := range r.sys.NetIDs {
		n += r.sys.Net.BytesSent(id)
	}
	return n
}

func (r *segRun) violate(format string, args ...interface{}) {
	r.seg.violations = append(r.seg.violations, r.w.name+": "+fmt.Sprintf(format, args...))
}

// step advances the simulator to `until`. While any app in `watch` is still
// waiting for its composition or its first unit it goes 1 ms at a time and
// polls, so those two instants are known to the millisecond; otherwise it
// jumps in 100 ms strides (polling keeps replaced sinks from being missed).
func (r *segRun) step(until time.Duration, watch []*runningApp) {
	sim := r.sys.Sim
	for sim.Now() < until {
		stride := 100 * time.Millisecond
		if anyWaiting(watch) {
			stride = time.Millisecond
		}
		next := sim.Now() + stride
		if next > until {
			next = until
		}
		sim.RunUntil(next)
		for _, a := range watch {
			if _, all := a.poll(); all && !a.hasFirst && a.done && a.err == nil {
				a.hasFirst, a.firstV, a.firstW = true, sim.Now(), time.Since(a.submitW)
				a.firstH = r.tr.rec.mark()
			}
		}
	}
}

func (r *segRun) submit(p plannedApp) *runningApp {
	a := &runningApp{plannedApp: p, eng: r.sys.Engines[p.Origin], sinks: make([][]*stream.Sink, len(p.Req.Substreams))}
	if r.timed != nil {
		r.timed.apps[p.Req.ID] = a
	}
	a.submitV, a.submitW = r.sys.Sim.Now(), time.Now()
	a.submitH = r.tr.rec.mark()
	sp := r.tr.rec.begin("stream.Submit", p.Req.ID)
	a.eng.Submit(p.Req, r.composer, rpcTimeout, func(g *core.ExecutionGraph, err error) {
		a.done, a.err, a.doneV = true, err, r.sys.Sim.Now()
		if err == nil {
			if cerr := core.CheckGraph(g, r.sys.Options.Catalog); cerr != nil {
				r.violate("request %s: composed graph fails CheckGraph: %v", p.Req.ID, cerr)
			}
		}
	})
	r.tr.rec.end(sp)
	return a
}

// expectedVerdict reports whether a Submit error is one the system returns
// by design when capacity is short, as opposed to a failed operation.
func expectedVerdict(err error) bool {
	return errors.Is(err, tenant.ErrAdmissionQueued) || errors.Is(err, tenant.ErrAdmissionRejected) ||
		errors.Is(err, core.ErrNoFeasiblePlacement)
}

// cycle runs one closed-loop cycle over the given submissions.
func (r *segRun) cycle(plan []plannedApp) {
	sim, seg, rec := r.sys.Sim, r.seg, r.tr.rec
	apps := make([]*runningApp, 0, len(plan))
	for i, p := range plan {
		apps = append(apps, r.submit(p))
		if i < len(plan)-1 {
			r.step(sim.Now()+r.w.gap, apps)
		}
	}
	// Every app is now followed until it has failed or its first unit has
	// reached every sink; one that is still silent after 20 virtual seconds
	// is given up on (it is composed, but counts no first-unit latency).
	sp := rec.begin("netsim.RunUntil:first-unit", "")
	for deadline := sim.Now() + 20*time.Second; sim.Now() < deadline && anyWaiting(apps); {
		r.step(sim.Now()+time.Millisecond, apps)
	}
	for _, a := range apps {
		a.gaveUp = !a.hasFirst
	}
	rec.end(sp)

	sp = rec.begin("netsim.RunUntil:window", "")
	for _, a := range apps {
		a.winStart, _ = a.poll()
	}
	winT0 := time.Now()
	r.step(sim.Now()+r.w.window, apps)
	seg.winWallS += time.Since(winT0).Seconds()
	for _, a := range apps {
		got, _ := a.poll()
		seg.winDelivered += got - a.winStart
		seg.winRequested += float64(a.Req.TotalRate()) * r.w.window.Seconds()
	}
	rec.end(sp)
	if lc := seg.layer; lc != nil && r.w.contended {
		lc.gate, lc.gateStats = r.sys.Gate.Totals(), r.sys.Gate.Stats()
	}

	// Quiesce: the adaptation loops would otherwise restart sources behind
	// the drain. Recompositions already in flight get their RPC timeout to
	// land before the sources are stopped.
	sp = rec.begin("drain", "")
	if r.w.contended {
		for _, e := range r.sys.Engines {
			e.DisableAdaptation()
		}
		r.step(sim.Now()+rpcTimeout+2*time.Second, apps)
	}
	for _, a := range apps {
		a.eng.StopSources(a.Req.ID)
	}
	r.step(sim.Now()+2*time.Second, apps)
	rec.end(sp)

	adapted := make(map[string]bool)
	for _, d := range r.sys.Journal.Decisions() {
		adapted[d.App] = true
	}
	for _, a := range apps {
		r.tally(a, adapted[a.Req.ID])
	}

	// Teardown, all in one simulator instant so that the fair-share
	// notifications each release triggers find their applications gone.
	sp = rec.begin("stream.Teardown", "")
	tearV := sim.Now()
	live := make(map[string]bool)
	for _, e := range r.sys.Engines {
		for _, c := range e.CompositionSnapshot() {
			live[c.App] = true
			e.Teardown(c.Graph, rpcTimeout)
		}
	}
	for _, a := range apps {
		if !live[a.Req.ID] {
			// Never composed, queued, or preempted: release whatever the
			// admission gate still holds for it.
			a.eng.Teardown(&core.ExecutionGraph{Request: a.Req}, rpcTimeout)
		}
	}
	settle := sim.Now() + time.Second
	if lc := seg.layer; lc != nil {
		// Same virtual work as the untraced run, stepped so that the
		// instant the last component disappears is known.
		for sim.Now() < settle && r.components() > 0 {
			sim.RunUntil(sim.Now() + time.Millisecond)
		}
		lc.phases["teardown"] = append(lc.phases["teardown"], ms(sim.Now()-tearV))
	}
	sim.RunUntil(settle)
	rec.end(sp)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *segRun) components() int {
	n := 0
	for _, e := range r.sys.Engines {
		n += e.Components()
	}
	return n
}

// tally folds one finished app into the segment and checks its flows. An
// app the adaptation plane touched (adapted) may have lost in-flight units
// at a torn-down component, which the engine does not count as drops, so
// for those the per-flow rule is an inequality; what is unaccounted for is
// summed, capped over the run (checkUnaccounted) and reported as
// stream.unaccounted_units.
func (r *segRun) tally(a *runningApp, adapted bool) {
	seg := r.seg
	seg.submitted++
	switch {
	case !a.done:
		seg.unexpected++
		r.violate("request %s: Submit callback never ran", a.Req.ID)
	case a.err == nil:
		seg.composed++
	case !expectedVerdict(a.err):
		seg.unexpected++
		r.violate("request %s: Submit failed: %v", a.Req.ID, a.err)
	}
	if a.hasFirst {
		seg.firstUnitMs = append(seg.firstUnitMs, ms(a.firstV-a.submitV))
		if r.w.gap == 0 {
			seg.submitHostMs = append(seg.submitHostMs, float64(a.firstW)/1e6)
		}
		if lc := seg.layer; lc != nil && a.composeSeen {
			lc.phases["discover_stats"] = append(lc.phases["discover_stats"], ms(a.enterV-a.submitV))
			lc.phases["instantiate"] = append(lc.phases["instantiate"], ms(a.doneV-a.exitV))
			lc.phases["first_unit"] = append(lc.phases["first_unit"], ms(a.firstV-a.doneV))
			r.tr.rec.add(r.root, "submit→first-unit", a.Req.ID, a.submitH, a.firstH, int64(a.submitV), int64(a.firstV))
		}
	}
	for l := range a.Req.Substreams {
		var t stream.Throughput
		for _, e := range r.sys.Engines {
			t.Accumulate(e.Throughput(a.Req.ID, l))
		}
		var delivered, timely int64
		for _, s := range a.sinks[l] {
			delivered += s.Received
			timely += s.Timely
			seg.delays.Merge(s.Delays)
		}
		seg.emitted += t.EmittedUnits
		seg.forwarded += t.ForwardedUnits
		seg.delivered += delivered
		seg.timely += timely
		seg.unaccounted += t.EmittedUnits - delivered - t.DroppedUnits
		if !flowRule(t.EmittedUnits, delivered, t.DroppedUnits, !adapted) {
			r.violate("flow %s/%d: emitted %d != delivered %d + dropped %d after the drain",
				a.Req.ID, l, t.EmittedUnits, delivered, t.DroppedUnits)
		}
		if lc := seg.layer; lc != nil && len(lc.stageLatencyMs) == 0 && a.hasFirst {
			// One flow per segment: reconstructing hops scans the whole buffer.
			for _, sl := range r.tr.buf.StageLatencies(a.Req.ID, l) {
				lc.stageLatencyMs = append(lc.stageLatencyMs, ms(sl.Mean))
			}
		}
	}
}

// conserved is the unit-conservation rule for one drained flow: nothing is
// delivered or dropped that was not emitted, and where the accounting is
// exact nothing is unaccounted for either.
func conserved(emitted, delivered, dropped int64, exact bool) bool {
	lost := emitted - delivered - dropped
	return lost == 0 || (lost > 0 && !exact)
}

// maxUnaccountedShare caps the units a simulator run may leave unaccounted
// for, as a share of the units emitted. The engine's known leak (in-flight
// units discarded at a component a reallocation tore down) costs 0.3-1.4 %
// of a sim-contended segment and nothing elsewhere.
const maxUnaccountedShare = 0.03

// checkUnaccounted applies the cap to the summed tallies of a run.
func (w *simWorkload) checkUnaccounted(o *outcome, t *segment) {
	if float64(t.unaccounted) > maxUnaccountedShare*float64(t.emitted) {
		o.violations = append(o.violations, fmt.Sprintf("%s: %d of %d emitted units neither delivered nor dropped after the drain, over the cap of %g",
			w.name, t.unaccounted, t.emitted, maxUnaccountedShare))
	}
}

// flowRule is the rule the workloads apply; a test swaps in a broken
// expectation to show that a violated check fails the command.
var flowRule = conserved

// checkClean asserts that the last teardown left nothing behind.
func (r *segRun) checkClean() {
	for i, e := range r.sys.Engines {
		if c, a := e.Components(), e.ActiveRequests(); c != 0 || a != 0 {
			r.violate("engine %d: %d components and %d active requests after the last teardown", i, c, a)
		}
	}
	if g := r.sys.Gate; g != nil {
		if t := g.Totals(); t.Admitted != 0 || t.Queued != 0 {
			r.violate("admission gate still holds %d admitted and %d queued after the last teardown", t.Admitted, t.Queued)
		}
	}
}
