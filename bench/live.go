package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/live"
	"rasc.dev/rasc/internal/metrics"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
)

// live-loopback is the only workload on the wall clock, real sockets and
// goroutines: three live.Start nodes on 127.0.0.1 (node 0 requests; nodes 1
// and 2 each offer one of two 20 µs relay services), gossip on, the
// resilient TCP pipeline underneath. Declared link capacities are 1e10 so
// that CPU, not the admission arithmetic, is the limit.
//
// Phase A is a closed loop of submit → first unit → stop → teardown cycles.
// Phase B streams one app of 2 substreams × 500 units/s in equal segments.
// The live source paces itself with After(period) and slows down when the
// actor loop is busy, so attainment is measured against the requested
// schedule (units due = rate × elapsed), not against what was emitted.
// Phase C (traced run only) is an ungated ladder at 100 and 2000 units/s.

const (
	liveWhy        = "wall clock, real TCP loopback and goroutines: three live nodes, a closed loop of submit cycles, then 2 x 500 units/s streaming"
	liveSubmitWait = 5 * time.Second
	liveRate       = 500
)

func liveCatalog() services.Catalog {
	c := services.Catalog{}
	for _, name := range []string{"relay-a", "relay-b"} {
		c[name] = spec.ServiceDef{Name: name, ProcPerUnit: 20 * time.Microsecond, RateRatio: 1, BytesRatio: 1}
	}
	return c
}

type liveCluster struct {
	nodes   []*live.Node
	catalog services.Catalog
}

// closeHangs counts node closes that did not return. TCPEndpoint.Send
// re-locks after dialing without looking at `closed` again, so a Close that
// lands during a dial leaves that connection's reader running and waits for
// it forever (seen twice in some 500 closes of freshly started clusters).
// The fix belongs in internal/transport; until then the suite gives a close
// two seconds and moves on, so the bug costs a count, not the run.
var closeHangs atomic.Int64

func (c *liveCluster) close() {
	// Freshly joined nodes are still dialing each other; let that settle.
	time.Sleep(100 * time.Millisecond)
	for _, n := range c.nodes {
		done := make(chan struct{})
		go func() {
			n.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			closeHangs.Add(1)
			fmt.Fprintln(os.Stderr, "bench: live node close did not return within 2 s (TCPEndpoint dial/Close race); abandoned")
		}
	}
}

// startLive boots the three nodes and returns once node 0 can look up both
// services, which is when the first Submit is possible.
func startLive(traceEvents int) (*liveCluster, error) {
	c := &liveCluster{catalog: liveCatalog()}
	offers := [][]string{nil, {"relay-a"}, {"relay-b"}}
	for i, svcs := range offers {
		cfg := live.Config{
			Listen: "127.0.0.1:0", Name: fmt.Sprintf("bench-live-%d", i),
			Services: svcs, Catalog: c.catalog, InBps: 1e10, OutBps: 1e10,
			TraceEvents: traceEvents,
		}
		if i > 0 {
			cfg.Bootstrap = c.nodes[0].Addr()
		}
		n, err := live.Start(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("live: start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	n0 := c.nodes[0]
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		found := make(chan bool, 1)
		n0.Do(func() {
			n0.Dir.LookupMany([]string{"relay-a", "relay-b"}, 2*time.Second, func(h map[string][]overlay.NodeInfo, err error) {
				found <- err == nil && len(h["relay-a"]) > 0 && len(h["relay-b"]) > 0
			})
		})
		if <-found {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("live: services not discoverable 20 s after start")
		}
	}
}

// flowTotals is a deployment-wide snapshot of one request's flows.
type flowTotals struct {
	emitted, delivered, timely int64
	totalDelay                 time.Duration
	perFlow                    []stream.Throughput // summed over nodes, one per substream
}

func (c *liveCluster) totals(req spec.Request) flowTotals {
	var t flowTotals
	t.perFlow = make([]stream.Throughput, len(req.Substreams))
	for i, n := range c.nodes {
		n.DoSync(func() {
			for l := range req.Substreams {
				tp := n.Engine.Throughput(req.ID, l)
				t.perFlow[l].Accumulate(tp)
				if i == 0 {
					if s := n.Engine.Sink(req.ID, l); s != nil {
						t.timely += s.Timely
						t.totalDelay += s.TotalDelay
					}
				}
			}
		})
	}
	for _, f := range t.perFlow {
		t.emitted += f.EmittedUnits
		t.delivered += f.DeliveredUnits
	}
	return t
}

// liveRun accumulates one live run.
type liveRun struct {
	c        *liveCluster
	rec      *recorder
	o        *outcome
	seq      int
	attempts int
	composed int
	failed   int
	// unaccounted sums emitted - delivered - dropped over the drained flows:
	// units still in a socket buffer when the totals were read.
	unaccounted int64
}

func (r *liveRun) violate(format string, args ...interface{}) {
	r.o.violations = append(r.o.violations, "live-loopback: "+fmt.Sprintf(format, args...))
}

// app is one submitted live application.
type liveApp struct {
	req     spec.Request
	graph   *core.ExecutionGraph
	firstMs float64 // Submit call to first unit at every sink
}

// submit composes req from node 0 and waits for the first unit at every
// sink. keepDelays installs a delay histogram on the sinks (the exported
// field the simulator's KeepDelaySamples option fills; live.Config has no
// such option).
func (r *liveRun) submit(req spec.Request, keepDelays bool) (*liveApp, error) {
	n0 := r.c.nodes[0]
	r.attempts++
	sp := r.rec.begin("live.Submit", req.ID)
	t0 := time.Now()
	g, err := n0.Submit(req, "mincost", liveSubmitWait)
	r.rec.end(sp)
	if err != nil {
		r.failed++
		r.violate("request %s: Submit failed: %v", req.ID, err)
		return nil, err
	}
	r.composed++
	if cerr := core.CheckGraph(g, r.c.catalog); cerr != nil {
		r.violate("request %s: composed graph fails CheckGraph: %v", req.ID, cerr)
	}
	if keepDelays {
		n0.DoSync(func() {
			for l := range req.Substreams {
				if s := n0.Engine.Sink(req.ID, l); s != nil {
					s.Delays = &metrics.Histogram{}
				}
			}
		})
	}
	sp = r.rec.begin("wait:first-unit", req.ID)
	defer r.rec.end(sp)
	for deadline := t0.Add(liveSubmitWait); ; time.Sleep(200 * time.Microsecond) {
		all := true
		n0.DoSync(func() {
			for l := range req.Substreams {
				if n0.Engine.Throughput(req.ID, l).DeliveredUnits == 0 {
					all = false
				}
			}
		})
		if all {
			return &liveApp{req: req, graph: g, firstMs: float64(time.Since(t0)) / 1e6}, nil
		}
		if time.Now().After(deadline) {
			r.failed++
			r.violate("request %s: no first unit at every sink within %v", req.ID, liveSubmitWait)
			return &liveApp{req: req, graph: g}, fmt.Errorf("no first unit")
		}
	}
}

// finish stops the app's sources, lets in-flight units drain, checks the
// flows and tears the app down, returning the drained totals.
func (r *liveRun) finish(a *liveApp, drain time.Duration) flowTotals {
	n0 := r.c.nodes[0]
	sp := r.rec.begin("drain", a.req.ID)
	n0.DoSync(func() { n0.Engine.StopSources(a.req.ID) })
	time.Sleep(drain)
	t := r.c.totals(a.req)
	r.rec.end(sp)
	for l, f := range t.perFlow {
		// On real sockets a unit still in a kernel buffer is neither
		// delivered nor dropped, so conservation is an inequality.
		r.unaccounted += f.EmittedUnits - f.DeliveredUnits - f.DroppedUnits
		if !flowRule(f.EmittedUnits, f.DeliveredUnits, f.DroppedUnits, false) {
			r.violate("flow %s/%d: delivered %d + dropped %d exceeds emitted %d",
				a.req.ID, l, f.DeliveredUnits, f.DroppedUnits, f.EmittedUnits)
		}
	}
	sp = r.rec.begin("stream.Teardown", a.req.ID)
	n0.DoSync(func() { n0.Engine.Teardown(a.graph, liveSubmitWait) })
	for deadline := time.Now().Add(2 * time.Second); r.residue() != "" && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	r.rec.end(sp)
	return t
}

// residue describes what the engines still hold ("" when clean).
func (r *liveRun) residue() string {
	out := ""
	for i, n := range r.c.nodes {
		n.DoSync(func() {
			if c, a := n.Engine.Components(), n.Engine.ActiveRequests(); c != 0 || a != 0 {
				out += fmt.Sprintf("node %d: %d components, %d active requests; ", i, c, a)
			}
		})
	}
	return out
}

// phaseA runs closed-loop submit cycles at 100 units/s per substream for
// `budget` of wall time, at least minCycles.
func (r *liveRun) phaseA(budget time.Duration, minCycles int) (firstMs, cycleS []float64, tot flowTotals) {
	start := time.Now()
	for i := 0; i < minCycles || time.Since(start) < budget; i++ {
		t0 := time.Now()
		r.seq++
		a, err := r.submit(liveApp0(r.seq, 100), false)
		if a == nil {
			continue
		}
		t := r.finish(a, 30*time.Millisecond)
		tot.emitted += t.emitted
		tot.delivered += t.delivered
		if err == nil {
			firstMs = append(firstMs, a.firstMs)
			cycleS = append(cycleS, time.Since(t0).Seconds())
		}
	}
	return firstMs, cycleS, tot
}

func liveApp0(seq, rate int) spec.Request { return liveRequest(fmt.Sprintf("live-%d", seq), 2, rate) }

// streamStats is one streaming phase measured in equal wall segments.
type streamStats struct {
	unitsPerS, cpuPerUnit, delayMeanMs []float64
	delivered                          int64   // inside the segments
	wallS                              float64 // of the segments
	emittedInSegs                      int64
	final                              flowTotals
	delays                             metrics.Histogram
	mem                                memCounters
}

// streamPhase submits one app at `rate` units/s per substream, measures
// `segments` segments of `each`, then drains and tears down.
func (r *liveRun) streamPhase(rate, segments int, each time.Duration) (*streamStats, error) {
	r.seq++
	a, err := r.submit(liveApp0(r.seq, rate), true)
	if err != nil {
		if a != nil {
			r.finish(a, 50*time.Millisecond)
		}
		return nil, err
	}
	st := &streamStats{}
	m0 := readMem()
	prev, prevCPU, prevT := r.c.totals(a.req), cpuTime(), time.Now()
	for s := 0; s < segments; s++ {
		sp := r.rec.begin("segment", fmt.Sprint(s))
		time.Sleep(each)
		cur, cpu, now := r.c.totals(a.req), cpuTime(), time.Now()
		r.rec.end(sp)
		wall, got := now.Sub(prevT).Seconds(), cur.delivered-prev.delivered
		st.unitsPerS = append(st.unitsPerS, ratio(float64(got), wall))
		st.cpuPerUnit = append(st.cpuPerUnit, ratio(float64(cpu-prevCPU)/1e3, float64(got)))
		st.delayMeanMs = append(st.delayMeanMs, ratio(float64(cur.totalDelay-prev.totalDelay)/1e6, float64(got)))
		st.delivered += got
		st.emittedInSegs += cur.emitted - prev.emitted
		st.wallS += wall
		prev, prevCPU, prevT = cur, cpu, now
	}
	m1 := readMem()
	st.mem = memCounters{mallocs: m1.mallocs - m0.mallocs, bytes: m1.bytes - m0.bytes}
	st.final = r.finish(a, 300*time.Millisecond)
	n0 := r.c.nodes[0]
	n0.DoSync(func() {
		for l := range a.req.Substreams {
			if s := n0.Engine.Sink(a.req.ID, l); s != nil {
				st.delays.Merge(s.Delays)
			}
		}
	})
	return st, nil
}

func runLive(seed int64, seconds float64, traced, short bool) (*outcome, *traceFile, error) {
	// The seed has nothing to vary here: the application is fixed and the
	// nodes draw their own randomness from the wall clock. It is accepted so
	// that every workload has the same command line.
	_ = seed
	if traced {
		return runLiveTraced(seed, short)
	}
	o := newOutcome()
	setups, minCycles, segments := 21, 20, 9
	if short {
		setups, minCycles, segments = 3, 5, 3
	}
	var setupS []float64
	var c *liveCluster
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = startLive(0); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer c.close()
	r := &liveRun{c: c, o: o}

	budget := time.Duration(seconds * float64(time.Second))
	firstMs, cycleS, totA := r.phaseA(budget/4, minCycles)
	each := (budget - budget/4) / time.Duration(segments)
	st, err := r.streamPhase(liveRate, segments, each)
	if err != nil {
		return nil, nil, fmt.Errorf("live: streaming phase: %w", err)
	}
	if res := r.residue(); res != "" {
		r.violate("after the last teardown: %s", res)
	}

	o.set("setup_s", median(setupS), len(setupS))
	o.set("units_per_s", median(st.unitsPerS), len(st.unitsPerS))
	o.set("submits_per_s", ratio(1, median(cycleS)), len(cycleS))
	o.set("delivered_fraction", ratio(float64(st.final.delivered+totA.delivered), float64(st.final.emitted+totA.emitted)), int(st.final.emitted+totA.emitted))
	o.set("timely_fraction", ratio(float64(st.final.timely), float64(st.final.delivered)), int(st.final.delivered))
	o.set("rate_attainment", ratio(float64(st.delivered), 2*liveRate*st.wallS), int(st.delivered))
	o.set("composed_fraction", ratio(float64(r.composed), float64(r.attempts)), r.attempts)
	o.set("delay_ms_p99", st.delays.Percentile(99), st.delays.N())
	o.set("submit_first_unit_ms_p50", median(firstMs), len(firstMs))
	o.attempted, o.failed = int64(r.attempts), int64(r.failed)
	return o, nil, nil
}

// runLiveTraced is the traced run: a short untraced streaming phase for the
// overhead base, then phases A, B and the ladder on a cluster with the
// program's per-unit trace buffer on and the benchmark's spans recorded.
func runLiveTraced(seed int64, short bool) (*outcome, *traceFile, error) {
	o := runProbes(seed, short)
	cycles, segments, each, rung := 100, 4, time.Second, 3*time.Second
	if short {
		cycles, segments, each, rung = 5, 2, 200*time.Millisecond, 300*time.Millisecond
	}

	plain, err := startLive(0)
	if err != nil {
		return nil, nil, err
	}
	pr := &liveRun{c: plain, o: o}
	base, err := pr.streamPhase(liveRate, segments, each)
	plain.close()
	if err != nil {
		return nil, nil, fmt.Errorf("live: untraced base phase: %w", err)
	}

	c, err := startLive(1 << 18)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	r := &liveRun{c: c, o: o, rec: newRecorder(nil)}
	tel0 := readTelemetry()
	root := r.rec.begin("phase-a", "")
	firstMs, _, _ := r.phaseA(0, cycles)
	r.rec.end(root)
	root = r.rec.begin("phase-b", "")
	st, err := r.streamPhase(liveRate, segments, each)
	r.rec.end(root)
	if err != nil {
		return nil, nil, fmt.Errorf("live: traced streaming phase: %w", err)
	}
	tel := readTelemetry()
	root = r.rec.begin("phase-c", "")
	for _, rate := range []int{100, 2000} {
		l, err := r.streamPhase(rate, 1, rung)
		if err != nil {
			return nil, nil, fmt.Errorf("live: ladder at %d: %w", rate, err)
		}
		o.set(fmt.Sprintf("live.attainment_r%d", rate), ratio(float64(l.delivered), float64(2*rate)*l.wallS), int(l.delivered))
		if rate == 2000 {
			o.set("live.delivered_fraction_r2000", ratio(float64(l.final.delivered), float64(l.final.emitted)), int(l.final.emitted))
		}
	}
	r.rec.end(root)
	if res := r.residue(); res != "" {
		r.violate("after the last teardown: %s", res)
	}

	units := float64(st.delivered)
	o.set("trace.overhead_ratio", ratio(median(st.cpuPerUnit), median(base.cpuPerUnit)), len(st.cpuPerUnit))
	o.set("process.cpu_us_per_unit", median(base.cpuPerUnit), len(base.cpuPerUnit))
	if c.nodes[0].Trace != nil {
		var ev int64
		for _, n := range c.nodes {
			ev += n.Trace.Total()
		}
		o.set("trace.events", float64(ev), 0)
	}
	var laxity, full, up, down int64
	for _, n := range c.nodes {
		n.DoSync(func() {
			laxity += n.Engine.DropsLaxity
			full += n.Engine.DropsQueueFull
			up += n.Engine.DropsUplink
			down += n.Engine.DropsDownlink
		})
	}
	o.set("sched.laxity_drops", float64(laxity), 0)
	o.set("sched.queue_full_drops", float64(full), 0)
	o.set("stream.uplink_drops", float64(up), 0)
	o.set("stream.downlink_drops", float64(down), 0)
	o.set("stream.unaccounted_units", float64(r.unaccounted), 0)
	o.set("stream.delay_ms_p50", st.delays.Percentile(50), st.delays.N())
	o.set("stream.allocs_per_unit", ratio(float64(st.mem.mallocs), units), int(units))
	o.set("stream.alloc_bytes_per_unit", ratio(float64(st.mem.bytes), units), int(units))
	o.set("stream.gc_cpu_fraction", readMem().gcCPU, 0)
	o.set("transport.frames_per_batch", ratio(tel.since(tel0, "rasc_transport_batch_size_sum"), tel.since(tel0, "rasc_transport_batch_size_count")), int(tel.since(tel0, "rasc_transport_batch_size_count")))
	o.set("transport.retries", tel.since(tel0, "rasc_transport_retries_total"), 0)
	o.set("transport.queue_full", tel.since(tel0, `rasc_transport_dropped_total{cause="queue-full"}`), 0)
	o.set("transport.breaker_opens", tel.since(tel0, `rasc_transport_breaker_transitions_total{state="open"}`), 0)
	o.set("transport.close_hangs", float64(closeHangs.Load()), 0)
	emitRate := ratio(float64(st.emittedInSegs), 2*st.wallS) // per substream
	o.set("live.source_tick_lag_us", (ratio(1, emitRate)-1.0/liveRate)*1e6, int(st.emittedInSegs))
	o.set("live.delay_mean_ms", median(st.delayMeanMs), len(st.delayMeanMs))
	if supports(len(firstMs), 90) {
		o.set("live.submit_first_unit_wall_ms_p90", percentile(firstMs, 90), len(firstMs))
	}
	o.attempted, o.failed = int64(r.attempts+pr.attempts), int64(r.failed+pr.failed)
	return o, &traceFile{Workload: "live-loopback", Seed: seed, Spans: r.rec.spans, SelfNs: selfTimes(r.rec.spans)}, nil
}
