package stream

import (
	"math/rand"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/sched"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/transport"
)

// Config parameterizes an Engine.
type Config struct {
	// InBps and OutBps are the node's access link capacities, published
	// in the availability vector.
	InBps, OutBps float64
	// SpeedFactor scales service processing times on this node
	// (1 = reference speed; <1 is slower hardware). Default 1.
	SpeedFactor float64
	// QueueCapacity bounds the scheduler's ready queue, and the buffer of
	// units that arrived ahead of their component (default 128).
	QueueCapacity int
	// SchedPolicy selects the scheduling discipline: "llf" (default),
	// "edf" or "fifo".
	SchedPolicy string
	// ProcJitter is the fractional random variation of processing times
	// (e.g. 0.2 for ±20%). Default 0.
	ProcJitter float64
	// StatsMaxAge makes the stats RPC serve a cached report refreshed at
	// most this often — an ablation of §3.2's continuous monitoring
	// ("it is essential to use feedback"). 0 serves fresh reports.
	StatsMaxAge time.Duration
	// KeepDelaySamples retains every delivered unit's end-to-end delay
	// in the sink for percentile analysis (costs memory proportional to
	// units delivered).
	KeepDelaySamples bool
	// DataPlane sizes the data-unit path (units per wire message, flush
	// deadline, simulated CPUs). The zero value is one unit per message
	// on one CPU.
	DataPlane DataPlaneConfig
}

func (c *Config) defaults() {
	if c.SpeedFactor <= 0 {
		c.SpeedFactor = 1
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 128
	}
	c.DataPlane.normalize()
}

// reqState is what an engine holds of one request. Arriving units take
// their request ID from it instead of copying it off the wire, and
// handleUnit finds their sink or component through it (readUnit attaches
// it to the unit) instead of by a lookup keyed on that ID. A request's
// state is never removed, like the sinks it holds.
type reqState struct {
	id string
	// comps are the component instances hosted here.
	comps []*component
	// sinks are the request's sinks by substream when this engine is its
	// origin. They outlive StopRequest so their statistics remain
	// readable; a full recompose replaces them.
	sinks []*Sink
	// stopped is set while StopRequest has ended the request here and no
	// instantiate or activation has revived it: a unit for it is stale,
	// not early.
	stopped bool
}

// request returns the state of req, creating it on first use.
func (e *Engine) request(req string) *reqState {
	r := e.reqs[req]
	if r == nil {
		r = &reqState{id: req}
		e.reqs[req] = r
	}
	return r
}

// unitReq returns the state of a unit's request: the one decoding
// attached, or, for a unit decoded before the request was known here, the
// engine's (nil when there is none).
func (e *Engine) unitReq(m dataMsg) *reqState {
	if m.local != nil {
		return m.local
	}
	return e.reqs[m.Req]
}

// sink returns the sink of a substream, or nil; r may be nil.
func (r *reqState) sink(substream int) *Sink {
	if r == nil || substream < 0 || substream >= len(r.sinks) {
		return nil
	}
	return r.sinks[substream]
}

// comp returns the component hosted for a substream stage, or nil; r may
// be nil.
func (r *reqState) comp(substream, stage int) *component {
	if r == nil {
		return nil
	}
	for _, c := range r.comps {
		if c.msg.Substream == substream && c.msg.Stage == stage {
			return c
		}
	}
	return nil
}

// setComp installs a component, replacing any for the same substream
// stage.
func (r *reqState) setComp(c *component) {
	for i, old := range r.comps {
		if old.msg.Substream == c.msg.Substream && old.msg.Stage == c.msg.Stage {
			r.comps[i] = c
			return
		}
	}
	r.comps = append(r.comps, c)
}

// setSink installs the sink of a substream, replacing any before it.
func (r *reqState) setSink(substream int, s *Sink) {
	for len(r.sinks) <= substream {
		r.sinks = append(r.sinks, nil)
	}
	r.sinks[substream] = s
}

// component is a running instance of a service on this engine.
type component struct {
	key       string
	msg       instantiateMsg
	split     *splitter
	outCredit float64
	flow      *flowCounters
	// shard is the component's execution context, pinned at creation
	// (shardFor). row is its monitor row, taken at its first arrival;
	// observations reach it through Engine.row.
	shard *engineShard
	row   *monitor.Row
}

// row returns the monitor row c's observations go to: the row it holds
// while that is live, else its key's current row (nil when there is none).
// A component replaced by a re-instantiation shares its successor's row,
// and one torn down reaches no row until an arrival opens a fresh one,
// exactly as a lookup by key would.
func (e *Engine) row(c *component) *monitor.Row {
	if c.row == nil || c.row.Forgotten() {
		c.row = e.Monitor.Row(c.key)
	}
	return c.row
}

// unitTask is the payload carried through the scheduler queue, with the
// scheduler unit that carries it (unit.Payload is the task) and its link
// on the engine's free list.
type unitTask struct {
	comp *component
	msg  dataMsg
	unit sched.Unit
	next *unitTask
}

// Directory is what the engine needs of service discovery
// (*discovery.Directory in every deployment): the hosts offering one
// service, sorted by ID, through a callback that runs exactly once.
type Directory interface {
	Lookup(service string, timeout time.Duration, cb func([]overlay.NodeInfo, error))
}

// Engine is one node's stream-processing runtime: it hosts components,
// runs the node's ready queues on its simulated CPUs (one unless
// DataPlane.Shards says otherwise), serves the stats and instantiation
// protocols, and (at the request origin) runs sources and sinks.
type Engine struct {
	node *overlay.Node
	clk  clock.Clock
	rng  *rand.Rand
	cfg  Config

	Monitor *monitor.NodeMonitor
	Dir     Directory

	// shards are the execution contexts (ready queue + simulated core).
	// dests holds one record per destination address with its batch,
	// batchSeq the count of batches opened so far (it stamps their age),
	// and flows the per-substream throughput counters behind Throughput().
	shards   []*engineShard
	dests    map[transport.Addr]*unitBatch
	batchSeq uint64
	flows    map[flowKey]*flowCounters

	// freeUnits, encodeBuf and decodeBuf are the data path's scratch: the
	// free list of scheduler units (getUnit) and the batch encode and
	// decode buffers, each taken for the duration of one use.
	freeUnits *unitTask
	encodeBuf []byte
	decodeBuf []dataMsg

	sources map[flowKey]*source
	// reqs holds, by ID, every request this engine has hosted a
	// component, sink or source of, or stopped (see reqState).
	reqs map[string]*reqState

	// early holds, in arrival order, the units that reached this engine
	// ahead of the instantiate message creating their component (sources
	// start when that message is sent, and it may take a slower path than
	// the first units); at most QueueCapacity of them, oldest out first.
	early []dataMsg

	// origins tracks applications submitted from this engine, for the
	// adaptation plane.
	origins        map[string]*originState
	adaptCancel    func()
	availCancel    func()
	adaptCfg       *AdaptationConfig
	controller     *control.Controller
	recompositions int64
	reallocations  int64

	// journal and tracker record the adaptation decision plane: the
	// tracker observes the controller and writes causal traces into the
	// journal. composeCapture routes full-recompose solver stats from the
	// Submit pipeline back to the decision trace, keyed by request ID.
	journal        *trace.Journal
	tracker        *decisionTracker
	composeCapture map[string]*core.ComposeStats
	// availDown marks origin applications torn down by a full recompose
	// and not yet re-activated: the availability meter charges the whole
	// teardown-to-recompose window as below-threshold time (the app
	// delivers nothing while down), keyed to the last accrual instant.
	availDown map[string]time.Duration

	// tenantGate, when set, fronts the Submit path with admission control
	// and fair-share rate caps; pendingAdmission holds queued or preempted
	// submissions awaiting promotion.
	tenantGate       *tenant.Gate
	pendingAdmission map[string]pendingSubmit

	// inflight holds the origin's submissions between admission and their
	// callback, so Teardown can cancel them.
	inflight map[string]*submission

	// statsProvider, when set, answers composition-time stats queries from
	// a locally converged view (the gossip digest store) instead of
	// per-host RPC fetches. Hosts the provider cannot answer for fall back
	// to the RPC path.
	statsProvider func(overlay.ID) (monitor.Report, bool)

	// fed, when set, federates composition: input is scoped to the
	// engine's cluster, substreams the local cluster cannot place are
	// handed across a boundary, and the engine composes fragments on
	// behalf of remote clusters. cluster is the coordinator's cluster
	// name; empty means a flat (non-federated) deployment.
	fed     *federation.Coordinator
	cluster string

	// tracer, when set, records per-unit events.
	tracer *trace.Buffer

	// statsCache serves bounded-age reports when StatsMaxAge is set.
	statsCache   []byte
	statsCacheAt time.Duration

	// Drop counters by cause (diagnostics).
	DropsQueueFull int64
	DropsLaxity    int64
	DropsUplink    int64
	DropsDownlink  int64
	// DropsStale counts units with no component to run them: addressed to
	// one already torn down, held as early when their request was stopped,
	// or pushed out of the full early-unit buffer.
	DropsStale int64

	// Catalog supplies service definitions for locally hosted services.
	Catalog map[string]spec.ServiceDef
}

// NewEngine attaches a stream runtime to an overlay node. dir may be nil
// for pure worker nodes that never submit requests.
func NewEngine(node *overlay.Node, clk clock.Clock, dir Directory, catalog map[string]spec.ServiceDef, rng *rand.Rand, cfg Config) *Engine {
	cfg.defaults()
	e := &Engine{
		node:           node,
		clk:            clk,
		rng:            rng,
		cfg:            cfg,
		Monitor:        monitor.NewNodeMonitor(cfg.InBps, cfg.OutBps, monitor.DefaultWindow),
		Dir:            dir,
		shards:         make([]*engineShard, cfg.DataPlane.Shards),
		dests:          make(map[transport.Addr]*unitBatch),
		flows:          make(map[flowKey]*flowCounters),
		sources:        make(map[flowKey]*source),
		reqs:           make(map[string]*reqState),
		origins:        make(map[string]*originState),
		inflight:       make(map[string]*submission),
		composeCapture: make(map[string]*core.ComposeStats),
		availDown:      make(map[string]time.Duration),
		Catalog:        catalog,
	}
	if cfg.DataPlane.BatchUnits > 1 {
		// A batched engine encodes and decodes many units per message, so
		// its scratch starts at a full batch's size instead of growing to it.
		e.encodeBuf = make([]byte, 0, 4096)
		e.decodeBuf = make([]dataMsg, 0, cfg.DataPlane.BatchUnits)
	}
	for i := range e.shards {
		sh := &engineShard{queue: sched.NewPolicy(cfg.SchedPolicy, cfg.QueueCapacity)}
		sh.done = func() { e.finish(sh) }
		e.shards[i] = sh
	}
	e.Monitor.SetQueueLenFunc(e.queueLen)
	e.Monitor.SetCPU(cfg.SpeedFactor)
	if cfg.DataPlane.Shards > 1 {
		// The busy meter accumulates across all shards; report utilization
		// relative to the shard count so CPUFraction stays in [0,1].
		e.Monitor.SetCPUCount(cfg.DataPlane.Shards)
	}
	node.Register(appDataBatch, e.onDataBatch)
	node.RegisterDropObserver(appDataBatch, e.onDataBatchDropped)
	node.RegisterRequest(appInstantiate, e.onInstantiate)
	node.RegisterRequest(appTeardown, e.onTeardown)
	node.RegisterRequest(appStats, e.onStats)
	return e
}

// Node returns the engine's overlay node.
func (e *Engine) Node() *overlay.Node { return e.node }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Components returns the number of live component instances.
func (e *Engine) Components() int {
	n := 0
	for _, r := range e.reqs {
		n += len(r.comps)
	}
	return n
}

// HeldUnits returns the number of early units waiting for their component.
func (e *Engine) HeldUnits() int { return len(e.early) }

// ActiveRequests returns the number of requests originated at this engine
// that are still running.
func (e *Engine) ActiveRequests() int { return len(e.origins) }

// ExportTelemetry refreshes the process-wide telemetry registry's monitor
// gauges from the engine's current window state (scrape handlers call this
// just before exposition). It must run on the engine's loop, like every
// other engine method.
func (e *Engine) ExportTelemetry() { e.Monitor.Report(e.clk.Now()) }

// SetTracer attaches an event buffer recording this engine's per-unit
// events (emit/arrive/process/forward/drop/deliver). Pass nil to detach.
func (e *Engine) SetTracer(b *trace.Buffer) { e.tracer = b }

// SetDecisionJournal installs the journal that receives this engine's
// adaptation decision traces. Deployments call it before enabling
// adaptation so every engine writes into one shared journal; without it a
// private journal of trace.DefaultJournalCapacity is created on first use.
// Decisions already in flight keep writing to the journal they started on.
func (e *Engine) SetDecisionJournal(j *trace.Journal) {
	e.journal = j
	if e.tracker != nil {
		e.tracker.journal = j
	}
}

// DecisionJournal returns the engine's decision journal, creating the
// default private one if none was set.
func (e *Engine) DecisionJournal() *trace.Journal {
	if e.journal == nil {
		e.journal = trace.NewJournal(trace.DefaultJournalCapacity)
	}
	return e.journal
}

// ensureTracker returns the engine's decision tracker, building it (and a
// default journal) on first use.
func (e *Engine) ensureTracker() *decisionTracker {
	if e.tracker == nil {
		e.tracker = newDecisionTracker(e.DecisionJournal(), e.clk)
	}
	return e.tracker
}

// traceEvent appends an event when tracing is on.
func (e *Engine) traceEvent(kind trace.Kind, m dataMsg, stage int, note string) {
	if e.tracer == nil {
		return
	}
	e.tracer.Append(trace.Event{
		At:        e.clk.Now(),
		Kind:      kind,
		Node:      string(e.node.Addr()),
		Req:       m.Req,
		Substream: m.Substream,
		Stage:     stage,
		Seq:       m.Seq,
		Note:      note,
	})
}

// SetStatsProvider installs a local source of candidate-host monitoring
// reports — gossip-fresh digests — consulted before the per-host stats RPC
// during composition. Pass nil to restore fetch-only behavior.
func (e *Engine) SetStatsProvider(fn func(overlay.ID) (monitor.Report, bool)) {
	e.statsProvider = fn
}

// Sink returns the sink for a request substream hosted at this engine, or
// nil. It is the accessor for delivery detail (delay, jitter, ordering,
// timeliness, stalls); unit and byte counts are in Throughput.
func (e *Engine) Sink(req string, substream int) *Sink {
	return e.reqs[req].sink(substream)
}

// onStats serves the monitoring report to composing nodes as a fixed-size
// digest (monitor.AppendDigest), optionally from a bounded-age cache (the
// stale-statistics ablation).
func (e *Engine) onStats(_ overlay.NodeInfo, _ []byte, respond func([]byte, string)) {
	now := e.clk.Now()
	if e.cfg.StatsMaxAge > 0 && e.statsCache != nil && now-e.statsCacheAt < e.cfg.StatsMaxAge {
		respond(e.statsCache, "")
		return
	}
	b := e.Monitor.AppendDigest(make([]byte, 0, monitor.DigestSize), now)
	if e.cfg.StatsMaxAge > 0 {
		e.statsCache = b
		e.statsCacheAt = now
	}
	respond(b, "")
}

// onInstantiate creates one component instance.
func (e *Engine) onInstantiate(_ overlay.NodeInfo, body []byte, respond func([]byte, string)) {
	m, ok := parseInstantiate(body)
	if !ok {
		respond(nil, "stream: bad instantiate")
		return
	}
	r := e.request(m.Req)
	r.setComp(&component{
		key:   componentKey(m.Req, m.Substream, m.Stage),
		msg:   m,
		split: newSplitter(m.Outs),
		flow:  e.flowFor(m.Req, m.Substream),
		shard: e.shardFor(m.Req, m.Substream),
	})
	r.stopped = false
	e.replayEarly(m.Req, m.Substream, m.Stage)
	respond([]byte("ok"), "")
}

// onTeardown removes a request's components and stops its sources.
func (e *Engine) onTeardown(_ overlay.NodeInfo, body []byte, respond func([]byte, string)) {
	req, ok := parseTeardown(body)
	if !ok {
		respond(nil, "stream: bad teardown")
		return
	}
	e.StopRequest(req)
	respond([]byte("ok"), "")
}

// StopRequest stops local sources and removes local components of req,
// with their monitor rows, and drops the early units held for it. Sinks
// (and flow counters) are kept so their statistics remain readable.
//
// Only req's own rows go: a row exists only for a live component's key
// (one a re-instantiation replaced shares its successor's), so forgetting
// each component's key forgets exactly them, and a request whose ID
// extends req's ("x/y" for "x") keeps its rows.
func (e *Engine) StopRequest(req string) {
	e.StopSources(req)
	r := e.request(req)
	for _, c := range r.comps {
		e.Monitor.Forget(c.key)
	}
	r.comps = nil
	for _, m := range e.takeEarly(func(m dataMsg) bool { return m.Req == req }) {
		e.dropStale(m)
	}
	r.stopped = true
	delete(e.origins, req)
}

// StopSources halts this engine's sources for req without tearing down its
// components or sinks, letting in-flight units drain — the conservation
// tests use it to quiesce a composition before auditing unit counts. Open
// batches are flushed so no unit lingers past its flush deadline.
func (e *Engine) StopSources(req string) {
	for key, src := range e.sources {
		if src.req == req {
			src.stopped = true
			delete(e.sources, key)
		}
	}
	e.flushAll()
}

// dropArrival records a data unit lost at this node's downlink. The drop
// feeds the node's drop ratio (and its component's, while that has a
// monitor row) exactly like a queue or deadline drop, and is charged to the
// unit's flow whether it was addressed to a sink, a component or one
// already torn down.
func (e *Engine) dropArrival(m dataMsg) {
	e.DropsDownlink++
	telDropDownlink.Inc()
	e.traceEvent(trace.KindDrop, m, m.Stage, "downlink")
	var row *monitor.Row
	if c := e.unitReq(m).comp(m.Substream, m.Stage); c != nil {
		row = e.row(c)
	}
	e.Monitor.Dropped(row)
	f := e.flowFor(m.Req, m.Substream)
	f.droppedUnits++
	f.droppedBytes += int64(m.Size)
}

// dropStale records a unit that no component here will ever run, or
// emitted = delivered + dropped leaks.
func (e *Engine) dropStale(m dataMsg) {
	e.DropsStale++
	telDropStale.Inc()
	e.traceEvent(trace.KindDrop, m, m.Stage, "stale")
	f := e.flowFor(m.Req, m.Substream)
	f.droppedUnits++
	f.droppedBytes += int64(m.Size)
}

// earlyNote is appended to the service name in the arrive trace event of a
// unit replayed from the early-unit buffer.
const earlyNote = " early"

// holdEarly keeps a unit whose component does not exist yet until
// onInstantiate creates it (replayEarly), StopRequest stops its request, or
// newer early units push it out of the full buffer.
func (e *Engine) holdEarly(m dataMsg) {
	if n := len(e.early); n > 0 && n >= e.cfg.QueueCapacity {
		e.dropStale(e.early[0])
		e.early = append(e.early[:0], e.early[1:]...)
	}
	e.early = append(e.early, m)
}

// takeEarly removes the held units that match from the buffer and returns
// them, in arrival order.
func (e *Engine) takeEarly(match func(dataMsg) bool) []dataMsg {
	var taken []dataMsg
	kept := e.early[:0]
	for _, m := range e.early {
		if match(m) {
			taken = append(taken, m)
		} else {
			kept = append(kept, m)
		}
	}
	e.early = kept
	return taken
}

// replayEarly hands the units held for a component just created to
// handleUnit, in arrival order. Their Created stamp is untouched, so the
// wait counts toward their delay.
func (e *Engine) replayEarly(req string, substream, stage int) {
	held := e.takeEarly(func(m dataMsg) bool {
		return m.Req == req && m.Substream == substream && m.Stage == stage
	})
	for _, m := range held {
		telEarlyUnits.Inc()
		e.handleUnit(m, true)
	}
}

// handleUnit handles an arriving data unit: sink delivery, or a pooled
// enqueue onto the unit's shard for a local component. replayed marks a
// unit coming out of the early-unit buffer.
func (e *Engine) handleUnit(m dataMsg, replayed bool) {
	now := e.clk.Now()
	r := e.unitReq(m)
	if s := r.sink(m.Substream); s != nil && m.Stage == s.Stages {
		e.Monitor.ObserveInbound(now, m.Size)
		telDelivered.Inc()
		telDeliveryDelay.ObserveDuration(now - m.Created)
		e.traceEvent(trace.KindDeliver, m, m.Stage, "")
		s.observe(m, now)
		return
	}
	c := r.comp(m.Substream, m.Stage)
	if c == nil {
		// In flight when a teardown removed its component, or ahead of the
		// instantiate message that will create it.
		if r != nil && r.stopped {
			e.dropStale(m)
		} else {
			e.holdEarly(m)
		}
		return
	}
	c.row = e.Monitor.Arrive(c.row, c.key, c.msg.Service, now, m.Size)
	note := c.msg.Service
	if replayed {
		note += earlyNote
	}
	e.traceEvent(trace.KindArrive, m, m.Stage, note)
	period := time.Duration(float64(time.Second) / c.msg.Rate)
	exec := c.row.MeanProc()
	if exec == 0 {
		exec = e.scaledProc(c)
	}
	u, task := e.getUnit()
	u.Deadline = now + period
	u.ExecTime = exec
	u.Enqueued = now
	task.comp = c
	task.msg = m
	if !c.shard.queue.Push(u) {
		e.DropsQueueFull++
		telDropQueueFull.Inc()
		e.traceEvent(trace.KindDrop, m, m.Stage, "queue-full")
		e.Monitor.Dropped(c.row) // queue overflow
		c.flow.droppedUnits++
		c.flow.droppedBytes += int64(m.Size)
		e.putUnit(u)
		return
	}
	e.kick(c.shard)
}

// scaledProc returns the component's reference processing time adjusted
// for this node's speed.
func (e *Engine) scaledProc(c *component) time.Duration {
	return time.Duration(float64(c.msg.ProcHint) / e.cfg.SpeedFactor)
}

// kick runs one shard's CPU loop: if the shard is idle, drain up to
// BatchUnits ready units (dropping ones whose laxity went negative) and
// simulate their combined processing time in one span.
//
// The span starts when the shard's CPU is free (sh.free, the modelled end
// of its previous span) or now, whichever is later, and the completion
// timer is armed for the span's end. An end closer than the clock's
// resolution completes at once instead, and sh.free carries the modelled
// time forward: a timer that short would fire late, charging an idle hop
// a whole resolution, while under a backlog the ends run past the
// resolution and the span timers hold the shard to its modelled capacity.
// On the simulator (resolution 0) every span is a timer of exactly its
// processing time.
func (e *Engine) kick(sh *engineShard) {
	if sh.busy {
		return
	}
	sh.runs = sched.DrainN(sh.queue, e.clk.Now(), e.cfg.DataPlane.BatchUnits, sh.runs[:0], func(d *sched.Unit) {
		task := d.Payload.(*unitTask)
		e.DropsLaxity++
		telDropLaxity.Inc()
		e.traceEvent(trace.KindDrop, task.msg, task.msg.Stage, "laxity")
		e.Monitor.Dropped(e.row(task.comp))
		task.comp.flow.droppedUnits++
		task.comp.flow.droppedBytes += int64(task.msg.Size)
		e.putUnit(d)
	})
	if len(sh.runs) == 0 {
		return
	}
	sh.procs = sh.procs[:0]
	var total time.Duration
	for _, u := range sh.runs {
		task := u.Payload.(*unitTask)
		proc := e.scaledProc(task.comp)
		if e.cfg.ProcJitter > 0 {
			f := 1 + e.cfg.ProcJitter*(2*e.rng.Float64()-1)
			proc = time.Duration(float64(proc) * f)
		}
		if proc <= 0 {
			proc = time.Microsecond
		}
		total += proc
		sh.procs = append(sh.procs, proc)
	}
	sh.busy = true
	now := e.clk.Now()
	sh.free = max(now, sh.free) + total
	wait := sh.free - now
	if wait < e.clk.Resolution() {
		wait = 0
	}
	e.clk.After(wait, sh.done)
}

// finish ends a shard's processing span: the drained units are forwarded
// and the shard takes its next round.
func (e *Engine) finish(sh *engineShard) {
	// busy stays set until the drain scratch is fully consumed so a
	// re-entrant kick cannot clobber sh.runs mid-iteration.
	now := e.clk.Now()
	for i, u := range sh.runs {
		task := u.Payload.(*unitTask)
		telProcessed.Inc()
		e.Monitor.Processed(e.row(task.comp), sh.procs[i])
		e.Monitor.ObserveBusy(now, sh.procs[i])
		e.traceEvent(trace.KindProcess, task.msg, task.msg.Stage, task.comp.msg.Service)
		e.forward(task.comp, task.msg)
		e.putUnit(u)
	}
	sh.busy = false
	e.kick(sh)
}

// creditEpsilon absorbs float rounding in the unit credits of forward and
// the source loop, so a credit that sums to a whole unit emits it.
const creditEpsilon = 1e-9

// forward produces the component's output units and batches them for their
// downstream hosts according to the composed rate split. The rate ratio
// (positive and bounded: parseInstantiate checked it) accumulates as a
// credit so non-unit ratios emit the right long-run rate.
func (e *Engine) forward(c *component, in dataMsg) {
	c.outCredit += c.msg.RateRatio
	for c.outCredit >= 1-creditEpsilon {
		c.outCredit--
		out := c.split.next()
		if out == nil {
			return
		}
		size := c.msg.BytesOut
		if size <= 0 {
			size = in.Size
		}
		e.batchUnit(out, pendingUnit{
			msg: dataMsg{
				Req:       in.Req,
				Substream: in.Substream,
				Stage:     out.ToStage,
				Seq:       in.Seq,
				Created:   in.Created,
				Size:      size,
			},
			fromStage: in.Stage,
			comp:      c,
			flow:      c.flow,
		})
	}
}
