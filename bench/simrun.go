package main

import (
	"fmt"
	"time"

	"rasc.dev/rasc/internal/metrics"
	"rasc.dev/rasc/internal/trace"
)

// run is the untraced run: segments until `seconds` have passed, and at
// least the fixed prefix. Exact metrics (simulator clock, counts) come from
// the fixed prefix only, so they are the same for a seed on any host;
// host-clock metrics are medians over every segment completed, each
// segment's time first scaled by the host's speed during that segment (see
// yardstick).
func (w *simWorkload) run(seed int64, seconds float64) *outcome {
	start := time.Now()
	var segs []*segment
	y := newYardstick()
	for i := 0; i < w.fixed || time.Since(start).Seconds() < seconds; i++ {
		before := y.measure()
		seg := w.runSegment(seed, i, nil)
		seg.speed = hostSpeed(before, y.measure())
		if i >= w.fixed {
			seg.delays = metrics.Histogram{} // not read past the prefix
		}
		segs = append(segs, seg)
	}
	o := newOutcome()
	w.endToEnd(o, segs)
	return o
}

func (w *simWorkload) endToEnd(o *outcome, segs []*segment) {
	// Host seconds x speed = seconds of the reference host. The raw
	// wall-clock figures and the speed are printed next to the metrics.
	var setup, unitsPerS, submitsPerS, speed, rawSetup, rawUnits, rawSubmits []float64
	for _, s := range segs {
		o.violations = append(o.violations, s.violations...)
		setup = append(setup, s.setupS*s.speed)
		unitsPerS = append(unitsPerS, ratio(float64(s.winDelivered), s.winWallS*s.speed))
		submitsPerS = append(submitsPerS, ratio(float64(s.submitted), s.wallS*s.speed))
		speed = append(speed, s.speed)
		rawSetup = append(rawSetup, s.setupS)
		rawUnits = append(rawUnits, ratio(float64(s.winDelivered), s.winWallS))
		rawSubmits = append(rawSubmits, ratio(float64(s.submitted), s.wallS))
	}
	o.note = fmt.Sprintf("host speed %.4f of the reference; raw wall clock: setup_s %.6g units_per_s %.6g submits_per_s %.6g",
		median(speed), median(rawSetup), median(rawUnits), median(rawSubmits))
	n := len(segs)
	o.set("setup_s", median(setup), n)
	o.set("units_per_s", median(unitsPerS), n)
	o.set("submits_per_s", median(submitsPerS), n)

	t := sumSegments(segs[:w.fixed])
	w.checkUnaccounted(o, t)
	o.set("delivered_fraction", ratio(float64(t.delivered), float64(t.emitted)), int(t.emitted))
	o.set("timely_fraction", ratio(float64(t.timely), float64(t.delivered)), int(t.delivered))
	o.set("rate_attainment", ratio(float64(t.winDelivered), t.winRequested), int(t.winDelivered))
	o.set("composed_fraction", ratio(float64(t.composed), float64(t.submitted)), t.submitted)
	o.set("delay_ms_p99", t.delays.Percentile(99), t.delays.N())
	o.set("submit_first_unit_ms_p50", median(t.firstUnitMs), len(t.firstUnitMs))

	// An operation is one Submit; it fails when it ends in anything but a
	// composition or one of the verdicts the system gives by design when
	// capacity is short. Lost units are quality (delivered_fraction), not
	// failed operations: sim-contended drops them on purpose.
	o.attempted, o.failed = int64(t.submitted), int64(t.unexpected)
}

// sumSegments adds up the exact tallies of a run of segments.
func sumSegments(segs []*segment) *segment {
	t := &segment{}
	for _, s := range segs {
		t.submitted += s.submitted
		t.composed += s.composed
		t.unexpected += s.unexpected
		t.emitted += s.emitted
		t.forwarded += s.forwarded
		t.delivered += s.delivered
		t.timely += s.timely
		t.winDelivered += s.winDelivered
		t.winRequested += s.winRequested
		t.unaccounted += s.unaccounted
		t.firstUnitMs = append(t.firstUnitMs, s.firstUnitMs...)
		t.submitHostMs = append(t.submitHostMs, s.submitHostMs...)
		t.delays.Merge(&s.delays)
		t.wallS += s.wallS
	}
	return t
}

// runTraced runs the first w.traced segments twice, untraced then traced, on the
// same seeds, so the two do identical virtual work: the ratio of their host
// times is the tracing overhead, and the traced one feeds the per-layer
// metrics. probes are the isolated layer costs, needed here for the
// per-hop split.
func (w *simWorkload) runTraced(seed int64, probes *outcome) (*outcome, *traceFile) {
	tr := &tracer{rec: newRecorder(nil), buf: trace.NewBuffer(1 << 16)}
	n := w.traced
	var plain, traced []*segment
	mem, tel := memCounters{}, telemetrySnapshot{}
	for i := 0; i < n; i++ {
		plain = append(plain, w.runSegment(seed, i, nil))
		m0, t0 := readMem(), readTelemetry()
		traced = append(traced, w.runSegment(seed, i, tr))
		m1, t1 := readMem(), readTelemetry()
		mem.mallocs += m1.mallocs - m0.mallocs
		mem.bytes += m1.bytes - m0.bytes
		for k, v := range t1 {
			tel[k] += v - t0[k]
		}
	}

	o := newOutcome()
	var wallPlain, wallTraced, cpuPerUnit []float64
	mismatched := 0
	for i := range traced {
		o.violations = append(o.violations, traced[i].violations...)
		wallPlain = append(wallPlain, plain[i].wallS)
		wallTraced = append(wallTraced, traced[i].wallS)
		cpuPerUnit = append(cpuPerUnit, ratio(plain[i].cpuS*1e6, float64(plain[i].delivered)))
		// The two runs of a segment should agree on every exact tally. On
		// the batched plane about one pair in a hundred does not: flushAll
		// ranges over a map, so the order of the stop-time flushes, and
		// with it the simulator's jitter draws, differs from run to run.
		// The overhead ratio is a median over segments and survives that;
		// the count is reported.
		if p, t := plain[i], traced[i]; p.emitted != t.emitted || p.delivered != t.delivered || p.composed != t.composed {
			mismatched++
		}
	}
	o.set("trace.segments_mismatched", float64(mismatched), n)
	t := sumSegments(traced)
	w.checkUnaccounted(o, t)
	o.attempted, o.failed = int64(t.submitted), int64(t.unexpected)
	o.set("trace.overhead_ratio", ratio(median(wallTraced), median(wallPlain)), n)
	o.set("process.cpu_us_per_unit", median(cpuPerUnit), n)

	lc := &layerCounts{phases: make(map[string][]float64)}
	for _, s := range traced {
		l := s.layer
		lc.netBytes += l.netBytes
		lc.laxity += l.laxity
		lc.queueFull += l.queueFull
		lc.uplink += l.uplink
		lc.downlnk += l.downlnk
		lc.composeCalls += l.composeCalls
		lc.infeasible += l.infeasible
		lc.composeUs = append(lc.composeUs, l.composeUs...)
		lc.stageLatencyMs = append(lc.stageLatencyMs, l.stageLatencyMs...)
		lc.decisions += l.decisions
		lc.gate.Admitted += l.gate.Admitted
		lc.gate.Queued += l.gate.Queued
		lc.gate.Rejections += l.gate.Rejections
		lc.gate.Preemptions += l.gate.Preemptions
		lc.gateStats.CapNotifications += l.gateStats.CapNotifications
		for k, v := range l.phases {
			lc.phases[k] = append(lc.phases[k], v...)
		}
	}

	units, hops := float64(t.delivered), float64(t.emitted+t.forwarded)
	o.set("trace.events", float64(tr.buf.Total()), 0)
	o.set("netsim.bytes_per_submit", ratio(float64(lc.netBytes), float64(t.submitted)), t.submitted)
	o.set("netsim.bytes_per_unit", ratio(float64(lc.netBytes), units), int(units))
	o.set("sched.laxity_drops", float64(lc.laxity), 0)
	o.set("sched.queue_full_drops", float64(lc.queueFull), 0)
	o.set("stream.uplink_drops", float64(lc.uplink), 0)
	o.set("stream.downlink_drops", float64(lc.downlnk), 0)

	// The per-hop split is taken on the untraced segments' host time: what
	// one unit-hop costs end to end, what the probes say its wire path,
	// scheduler and monitor calls cost, and the remainder, which is the
	// engine's own share. host = probe + self by construction.
	flushes := tel.sum("rasc_dataplane_flush_total")
	batchMean := ratio(tel["rasc_dataplane_batch_units_sum"], tel["rasc_dataplane_batch_units_count"])
	wire := probes.metrics["overlay.direct_ns"]
	if w.plane.BatchUnits > 1 {
		wire = ratio(probes.metrics["overlay.direct_data_ns"], batchMean)
	}
	probe := wire + probes.metrics["sched.llf_push_next_ns"] + probes.metrics["monitor.observe_ns"]
	host := ratio(sum(wallPlain)*1e9, hops)
	o.set("stream.unaccounted_units", float64(t.unaccounted), int(t.emitted))
	o.set("stream.delay_ms_p50", t.delays.Percentile(50), t.delays.N())
	o.set("stream.host_ns_per_hop", host, int(hops))
	o.set("stream.probe_ns_per_hop", probe, 0)
	o.set("stream.self_ns_per_hop", host-probe, 0)
	o.set("stream.allocs_per_unit", ratio(float64(mem.mallocs), units), int(units))
	o.set("stream.alloc_bytes_per_unit", ratio(float64(mem.bytes), units), int(units))
	o.set("stream.gc_cpu_fraction", readMem().gcCPU, 0)
	o.set("stream.flushes_per_1k_units", ratio(1000*flushes, hops), 0)
	o.set("stream.batch_units_mean", batchMean, int(tel["rasc_dataplane_batch_units_count"]))

	for _, ph := range []string{"discover_stats", "instantiate", "first_unit", "teardown"} {
		o.set("stream.phase_"+ph+"_virtual_ms_p50", median(lc.phases[ph]), len(lc.phases[ph]))
	}
	o.set("stream.phase_stats_virtual_ms_p50",
		median(lc.phases["discover_stats"])-probes.metrics["discovery.lookup_many_virtual_ms_p50"], len(lc.phases["discover_stats"]))
	o.set("stream.stage_latency_virtual_ms", ratio(sum(lc.stageLatencyMs), float64(len(lc.stageLatencyMs))), len(lc.stageLatencyMs))
	o.set("stream.submit_host_ms_p50", median(t.submitHostMs), len(t.submitHostMs))
	if p, ok := supportedTail(len(t.firstUnitMs)); ok {
		o.set("stream.submit_first_unit_ms_tail", percentile(t.firstUnitMs, p), len(t.firstUnitMs))
		o.set("stream.submit_first_unit_tail_pct", p, 0)
	}
	o.set("core.compose_calls", float64(lc.composeCalls), 0)
	o.set("core.compose_inrun_us_p50", median(lc.composeUs), len(lc.composeUs))
	o.set("core.infeasible", float64(lc.infeasible), 0)
	o.set("tenant.admitted", float64(lc.gate.Admitted), 0)
	o.set("tenant.queued", float64(lc.gate.Queued), 0)
	o.set("tenant.rejected", float64(lc.gate.Rejections), 0)
	o.set("tenant.preemptions", float64(lc.gate.Preemptions), 0)
	o.set("tenant.cap_notifications", float64(lc.gateStats.CapNotifications), 0)
	o.set("control.decisions", float64(lc.decisions), 0)
	o.set("control.reallocations", tel.sum("rasc_control_reallocations_total"), 0)
	o.set("control.full_recomposes", tel[`rasc_control_reallocations_total{mode="full"}`], 0)
	o.set("control.time_below_requested_s", tel.sum("rasc_app_time_below_requested_seconds_total"), 0)

	return o, &traceFile{Workload: w.name, Seed: seed, Spans: tr.rec.spans, SelfNs: selfTimes(tr.rec.spans)}
}

// traceFile is what a traced run writes to results/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns_by_span_name"`
	Spans    []span           `json:"spans"`
}
