package main

// metricDef names one metric the suite emits. BENCHMARK.json repeats the
// name, unit and direction of every one (a test keeps the two in step) and
// adds the regression bound of the end-to-end ones.
//
// Clock rule: a latency on a sim-* workload is simulator time, on
// live-loopback host wall time, and the two are never compared (bounds apply
// per workload). Metrics that are host time on every workload say so in
// their name (wall, cpu, host); per-layer metrics on simulator time carry
// "virtual". On the simulator workloads the three host-clock end-to-end
// metrics are in seconds of the reference host: the run's own seconds scaled
// by the host's speed while they passed (see yardstick). Everything else on
// a host clock is raw.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	help   string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "s to build, join and announce the deployment until the first Submit is possible (sim: reference-host seconds; live: wall seconds); median over the run's set-ups"},
	{"units_per_s", "1/s", "higher", "units delivered to sinks per second (sim: in the streaming windows, per reference-host second of simulating them; live: per wall second of phase B, where delivery is timer-paced); median of segments"},
	{"submits_per_s", "1/s", "higher", "completed submit-to-teardown cycles per second (sim: reference-host seconds; live: wall seconds); median of segments"},
	{"delivered_fraction", "ratio", "higher", "units delivered / units emitted, after a drain"},
	{"timely_fraction", "ratio", "higher", "timely / delivered by the sink's in-order, within-one-period rule"},
	{"rate_attainment", "ratio", "higher", "units delivered in the streaming window / units the submitted apps requested for it (a refused app contributes 0)"},
	{"composed_fraction", "ratio", "higher", "requests composed / requests submitted"},
	{"delay_ms_p99", "ms", "lower", "source-to-sink delay per unit, workload clock (the median is stream.delay_ms_p50)"},
	{"submit_first_unit_ms_p50", "ms", "lower", "Submit call to first unit at every sink, workload clock"},
}

var perLayer = []metricDef{
	// Isolated probes: the cost of one call into a layer's public functions
	// on fixtures shaped like the workloads. Reported by every workload.
	{"netsim.event_ns", "ns", "lower", "Schedule + dispatch of one simulator event"},
	{"netsim.send_ns", "ns", "lower", "Network.Send of 1250 B to the handler"},
	{"transport.mem_send_ns", "ns", "lower", "mem endpoint Send to the peer's handler (includes netsim)"},
	{"transport.tcp_msg_us", "us", "lower", "one-way 1 KB message streamed over TCPEndpoint loopback"},
	{"transport.tcp_rtt_us_p50", "us", "lower", "1 KB ping-pong over TCPEndpoint loopback"},
	{"transport.resilient_send_ns", "ns", "lower", "Resilient.Send enqueue cost"},
	{"transport.resilient_msg_us", "us", "lower", "one-way 1 KB message streamed through the resilient pipeline"},
	{"overlay.direct_ns", "ns", "lower", "DirectPadded to the app handler, JSON envelope (includes transport and netsim)"},
	{"overlay.direct_data_ns", "ns", "lower", "DirectDataPadded to the app handler, binary envelope"},
	{"overlay.request_host_us", "us", "lower", "host cost of one RPC on the 32-node topology"},
	{"overlay.request_virtual_ms_p50", "ms", "lower", "round trip of one RPC on the 32-node topology"},
	{"overlay.route_hops_mean", "count", "lower", "overlay hops per routed message"},
	{"dht.get_virtual_ms_p50", "ms", "lower", "one DHT get on the 32-node topology"},
	{"discovery.lookup_many_virtual_ms_p50", "ms", "lower", "LookupMany of one sim-compose request's services"},
	{"discovery.lookup_many_host_us", "us", "lower", "host cost of that LookupMany"},
	{"monitor.observe_ns", "ns", "lower", "ObserveArrival + ObserveProcessed + ObserveSend for one unit"},
	{"monitor.report_us", "us", "lower", "Report with 8 components"},
	{"sched.llf_push_next_ns", "ns", "lower", "LLF Push + Next at depth 64"},
	{"sched.drain32_ns", "ns", "lower", "DrainN of 32 units, per unit"},
	{"core.compose_us", "us", "lower", "MinCost.Compose, 16 hosts x 3 stages"},
	{"core.compose_allocs", "count", "lower", "allocations per such Compose"},
	{"core.compose_delta_us", "us", "lower", "MinCost.ComposeDelta with one degraded host"},
	{"mincostflow.solve_us", "us", "lower", "pooled solver on the same layered graph"},
	{"mincostflow.iterations", "count", "lower", "augmentations of that solve"},
	{"tenant.admit_us_p50", "us", "lower", "Admit + Release with 1000 tenants admitted"},
	{"gossip.false_dead_members", "count", "lower", "idle 32-node facade-default deployment, 60 virtual s: members declared dead, summed over nodes (all are alive)"},
	{"gossip.bytes_per_node_per_s", "B/s", "lower", "idle gossip traffic"},
	{"gossip.host_us_per_virtual_s", "us", "lower", "host cost of idle gossip"},
	{"tenant.capacity_retained", "ratio", "higher", "gate budget after / before that idle minute (should be 1)"},
	{"live.actor_roundtrip_us", "us", "lower", "DoSync(func(){}) on a live node"},
	{"telemetry.counter_inc_ns", "ns", "lower", "Counter.Inc"},

	// Read in the traced run of the workload. 0 = the workload does not
	// exercise the layer.
	{"trace.overhead_ratio", "ratio", "lower", "traced / untraced host wall of the same work"},
	{"trace.segments_mismatched", "count", "lower", "segments whose traced and untraced runs tallied different work (0 on a deterministic program)"},
	{"process.cpu_us_per_unit", "us", "lower", "process user+sys CPU (getrusage) per delivered unit, untraced segments, raw host time; not bounded: on live-loopback it moved by a quarter between identical runs"},
	{"process.peak_rss_mb", "MB", "lower", "ru_maxrss of the workload's process (one process per workload)"},
	{"trace.events", "count", "lower", "per-unit events the program's trace.Buffer received"},
	{"netsim.bytes_per_submit", "B", "lower", "bytes pushed into uplinks per submit cycle"},
	{"netsim.bytes_per_unit", "B", "lower", "bytes pushed into uplinks per delivered unit"},
	{"sched.laxity_drops", "count", "lower", "units dropped for negative laxity"},
	{"sched.queue_full_drops", "count", "lower", "units refused by a full ready queue"},
	{"stream.uplink_drops", "count", "lower", "units refused at a sender's uplink"},
	{"stream.downlink_drops", "count", "lower", "units dropped at a receiver's downlink"},
	{"stream.unaccounted_units", "count", "lower", "emitted - delivered - dropped after the drain, summed over flows (sim: 0 but for units the engine discards at a component a reallocation tore down; live: units still in socket buffers)"},
	{"stream.delay_ms_p50", "ms", "lower", "median source-to-sink delay per unit, workload clock; not bounded: on live-loopback it flips between two modes from run to run"},
	{"stream.host_ns_per_hop", "ns", "lower", "timed host wall / (emitted + forwarded) unit-hops"},
	{"stream.probe_ns_per_hop", "ns", "lower", "summed probe cost of one hop: overlay wire path + sched + monitor"},
	{"stream.self_ns_per_hop", "ns", "lower", "host_ns_per_hop - probe_ns_per_hop: the engine's own codec and bookkeeping"},
	{"stream.allocs_per_unit", "count", "lower", "heap allocations per delivered unit"},
	{"stream.alloc_bytes_per_unit", "B", "lower", "heap bytes per delivered unit"},
	{"stream.gc_cpu_fraction", "ratio", "lower", "MemStats.GCCPUFraction at the end of the run"},
	{"stream.flushes_per_1k_units", "count", "lower", "data-plane batch flushes per 1000 unit-hops"},
	{"stream.batch_units_mean", "count", "higher", "units per flushed batch"},
	{"stream.phase_discover_stats_virtual_ms_p50", "ms", "lower", "Submit call to composer entered"},
	{"stream.phase_stats_virtual_ms_p50", "ms", "lower", "that minus discovery.lookup_many_virtual_ms_p50"},
	{"stream.phase_instantiate_virtual_ms_p50", "ms", "lower", "composer returned to Submit callback"},
	{"stream.phase_first_unit_virtual_ms_p50", "ms", "lower", "callback to first unit at every sink"},
	{"stream.phase_teardown_virtual_ms_p50", "ms", "lower", "Teardown call to last component gone"},
	{"stream.stage_latency_virtual_ms", "ms", "lower", "mean per-hop latency from trace.Buffer.StageLatencies"},
	{"stream.submit_host_ms_p50", "ms", "lower", "host wall spent simulating one submit to first unit"},
	{"stream.submit_first_unit_ms_tail", "ms", "lower", "submit to first unit at the highest percentile with 10 samples beyond it"},
	{"stream.submit_first_unit_tail_pct", "%", "higher", "which percentile that is (0: too few samples)"},
	{"core.compose_calls", "count", "lower", "Compose calls the decorated composer saw"},
	{"core.compose_inrun_us_p50", "us", "lower", "host time of those calls"},
	{"core.infeasible", "count", "lower", "of which returned ErrNoFeasiblePlacement"},
	{"tenant.admitted", "count", "higher", "tenants admitted when the window closed"},
	{"tenant.queued", "count", "lower", "tenants queued then"},
	{"tenant.rejected", "count", "lower", "admissions rejected"},
	{"tenant.preemptions", "count", "lower", "tenants preempted"},
	{"tenant.cap_notifications", "count", "lower", "fair-share cap changes delivered"},
	{"control.decisions", "count", "lower", "decisions in the journal"},
	{"control.reallocations", "count", "lower", "successful reallocations (telemetry delta)"},
	{"control.full_recomposes", "count", "lower", "of which full teardown-and-recompose"},
	{"control.time_below_requested_s", "s", "lower", "app-seconds below the requested rate (telemetry delta)"},
	{"transport.frames_per_batch", "count", "higher", "frames per resilient-pipeline batch (telemetry delta)"},
	{"transport.retries", "count", "lower", "send retries"},
	{"transport.queue_full", "count", "lower", "messages refused by a full peer queue"},
	{"transport.breaker_opens", "count", "lower", "circuit breakers opened"},
	{"transport.close_hangs", "count", "lower", "live node closes that never returned (TCPEndpoint dial/Close race) and were abandoned after 2 s"},
	{"live.source_tick_lag_us", "us", "lower", "1/emitted rate - 1/requested rate"},
	{"live.delay_mean_ms", "ms", "lower", "median of per-segment sink mean delay"},
	{"live.attainment_r100", "ratio", "higher", "ladder: delivered / due at 100 units/s per substream"},
	{"live.attainment_r2000", "ratio", "higher", "ladder: at 2000 units/s per substream"},
	{"live.delivered_fraction_r2000", "ratio", "higher", "ladder: delivered / emitted at 2000 units/s"},
	{"live.submit_first_unit_wall_ms_p90", "ms", "lower", "Node.Submit call to first unit at every sink"},
}

// outcome is what one run of one workload produces.
type outcome struct {
	attempted, failed int64
	violations        []string
	metrics           map[string]float64
	samples           map[string]int // sample count behind a metric, where it has one
	note              string         // printed after the metrics as a comment line
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), samples: make(map[string]int)}
}

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	if n > 0 {
		o.samples[name] = n
	}
}

// merge copies another outcome's metrics in (probe results into a workload's).
func (o *outcome) merge(p *outcome) {
	for k, v := range p.metrics {
		o.metrics[k] = v
	}
	for k, n := range p.samples {
		o.samples[k] = n
	}
	o.violations = append(o.violations, p.violations...)
}
