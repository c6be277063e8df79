package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
	"rasc.dev/rasc/internal/discovery"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/live"
	"rasc.dev/rasc/internal/mincostflow"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/netsim"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/sched"
	"rasc.dev/rasc/internal/simnet"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/telemetry"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/transport"
)

// Isolated probes time a layer's public functions on fixtures shaped like
// the workloads, so probe cost × in-run count approximates the layer's
// share of a run. Each is a few tens of milliseconds; the whole set runs in
// every traced run, whatever the workload.

// perOp runs fn(n) `rounds` times and returns the median cost of one of the
// n operations in nanoseconds.
func perOp(rounds, n int, fn func(n int)) float64 {
	var ns []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		fn(n)
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return median(ns)
}

func runProbes(seed int64, short bool) *outcome {
	o := newOutcome()
	scale := 1
	if short {
		scale = 20
	}
	probeNetsim(o, scale)
	probeOverlayPair(o, scale)
	probeTopology32(o, seed, scale)
	probeMonitorSched(o, scale)
	probeCompose(o, scale)
	probeTenant(o, scale)
	probeTelemetry(o, scale)
	if err := probeTCP(o, scale); err != nil {
		o.violations = append(o.violations, "probe: tcp: "+err.Error())
	}
	if err := probeActor(o, scale); err != nil {
		o.violations = append(o.violations, "probe: live actor: "+err.Error())
	}
	probeGossipIdle(o, seed, short)
	return o
}

func probeNetsim(o *outcome, scale int) {
	n := 200000 / scale
	o.set("netsim.event_ns", perOp(5, n, func(n int) {
		sim := netsim.New(1)
		for i := 0; i < n; i++ {
			sim.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		}
		sim.Run()
	}), n)

	n = 100000 / scale
	o.set("netsim.send_ns", perOp(5, n, func(n int) {
		sim := netsim.New(1)
		nw := netsim.NewNetwork(sim, netsim.Config{Jitter: 5 * time.Millisecond})
		a, b := nw.AddNode(3e8, 3e8), nw.AddNode(3e8, 3e8)
		got := 0
		nw.SetHandler(b, func(netsim.NodeID, int, interface{}) { got++ })
		for i := 0; i < n; i++ {
			nw.Send(a, b, 1250, nil)
			if i%64 == 63 {
				sim.Run()
			}
		}
		sim.Run()
	}), n)

	o.set("transport.mem_send_ns", perOp(5, n, func(n int) {
		sim := netsim.New(1)
		nw := netsim.NewNetwork(sim, netsim.Config{Jitter: 5 * time.Millisecond})
		mem := transport.NewMemNetwork(nw)
		a, b := mem.Endpoint(nw.AddNode(3e8, 3e8)), mem.Endpoint(nw.AddNode(3e8, 3e8))
		b.SetHandler(func(transport.Addr, transport.Message) {})
		msg := transport.Message{Type: "probe", Payload: make([]byte, 120), Pad: 1130, Datagram: true}
		for i := 0; i < n; i++ {
			_ = a.Send(b.Addr(), msg) // mem endpoints refuse only when closed or backlogged; neither here
			if i%64 == 63 {
				sim.Run()
			}
		}
		sim.Run()
	}), n)
}

// probeOverlayPair times the two envelopes a data unit can travel in,
// between two overlay nodes on fast links, through to the app handler.
func probeOverlayPair(o *outcome, scale int) {
	n := 50000 / scale
	c := simnet.New(simnet.Options{N: 2, Seed: 1,
		Topology: netsim.PlanetLabTopology(netsim.TopologyConfig{Nodes: 2, MinBps: 3e8, MaxBps: 3e8}, 1)})
	got := 0
	c.Nodes[1].Register("probe", func(overlay.ID, overlay.NodeInfo, []byte) { got++ })
	body := make([]byte, 96) // about one JSON-encoded dataMsg
	to := c.Nodes[1].Addr()
	send := func(fn func() error) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				_ = fn() // an uplink refusal would show as got < sent below
				if i%64 == 63 {
					c.Sim.Run()
				}
			}
			c.Sim.Run()
		}
	}
	o.set("overlay.direct_ns", perOp(5, n, send(func() error { return c.Nodes[0].DirectPadded(to, "probe", body, 1154) })), n)
	o.set("overlay.direct_data_ns", perOp(5, n, send(func() error { return c.Nodes[0].DirectDataPadded(to, "probe", body, 1154) })), n)
	if got != 10*n {
		o.violations = append(o.violations, fmt.Sprintf("probe: overlay pair delivered %d of %d", got, 10*n))
	}
}

// probeTopology32 measures the control-path building blocks on the 32-node
// paper topology sim-compose runs on: one RPC, one DHT get, one LookupMany
// of a generated request's services, and overlay hops per routed message.
func probeTopology32(o *outcome, seed int64, scale int) {
	w := simWorkloadByName("sim-compose", false)
	sys := deploy.NewSystem(w.options(segmentSeed(seed, 0)))
	sim := sys.Sim
	rng := rand.New(rand.NewSource(seed))
	for _, n := range sys.Nodes {
		n.RegisterRequest("probe", func(_ overlay.NodeInfo, _ []byte, respond func([]byte, string)) { respond(nil, "") })
	}
	until := func(done *bool) {
		for limit := sim.Now() + 30*time.Second; !*done && sim.Now() < limit; {
			sim.RunUntil(sim.Now() + time.Millisecond)
		}
	}
	var routed0, fwd0 int64
	for _, n := range sys.Nodes {
		routed0 += n.RoutedSent
		fwd0 += n.Forwarded
	}

	k := 400 / scale
	var rttMs, hostUs []float64
	for i := 0; i < k; i++ {
		a, b := rng.Intn(w.nodes), rng.Intn(w.nodes-1)
		if b >= a {
			b++
		}
		done, v0, t0 := false, sim.Now(), time.Now()
		sys.Nodes[a].Request(sys.Nodes[b].Addr(), "probe", nil, rpcTimeout, func([]byte, error) { done = true })
		until(&done)
		rttMs, hostUs = append(rttMs, ms(sim.Now()-v0)), append(hostUs, float64(time.Since(t0))/1e3)
	}
	o.set("overlay.request_virtual_ms_p50", median(rttMs), k)
	o.set("overlay.request_host_us", median(hostUs), k)

	var getMs []float64
	for i := 0; i < k; i++ {
		svc := standardServices[rng.Intn(len(standardServices))]
		done, v0 := false, sim.Now()
		sys.Stores[rng.Intn(w.nodes)].Get(discovery.ServiceKey(svc), rpcTimeout, func([][]byte, error) { done = true })
		until(&done)
		getMs = append(getMs, ms(sim.Now()-v0))
	}
	o.set("dht.get_virtual_ms_p50", median(getMs), k)

	var lookMs, lookUs []float64
	plan := w.plan(seed, 0)
	for i, cycle := range plan[:min(k/4, len(plan))] {
		done, v0, t0 := false, sim.Now(), time.Now()
		sys.Dirs[i%w.nodes].LookupMany(cycle[0].Req.Services(), rpcTimeout, func(map[string][]overlay.NodeInfo, error) { done = true })
		until(&done)
		lookMs, lookUs = append(lookMs, ms(sim.Now()-v0)), append(lookUs, float64(time.Since(t0))/1e3)
	}
	o.set("discovery.lookup_many_virtual_ms_p50", median(lookMs), len(lookMs))
	o.set("discovery.lookup_many_host_us", median(lookUs), len(lookUs))

	var routed, fwd int64
	for _, n := range sys.Nodes {
		routed += n.RoutedSent
		fwd += n.Forwarded
	}
	o.set("overlay.route_hops_mean", 1+ratio(float64(fwd-fwd0), float64(routed-routed0)), int(routed-routed0))
}

func probeMonitorSched(o *outcome, scale int) {
	n := 200000 / scale
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe/0/%d", i)
	}
	m := monitor.NewNodeMonitor(3e8, 3e8, 0)
	now := time.Duration(0)
	o.set("monitor.observe_ns", perOp(5, n, func(n int) {
		for i := 0; i < n; i++ {
			now += 100 * time.Microsecond
			k := keys[i%len(keys)]
			m.ObserveArrival(k, "filter", now, 1250)
			m.ObserveProcessed(k, "filter", 800*time.Microsecond)
			m.ObserveSend(now, 1250)
		}
	}), n)
	o.set("monitor.report_us", perOp(5, n/100, func(n int) {
		for i := 0; i < n; i++ {
			now += time.Millisecond
			m.Report(now)
		}
	})/1e3, n/100)

	// LLF at the depth a loaded sim-stream host runs at: keep 64 queued,
	// push one, take one.
	q := sched.NewLLF(128)
	units := make([]sched.Unit, 128)
	far := time.Hour // deadlines far enough that nothing is dropped for laxity
	for i := 0; i < 64; i++ {
		units[i] = sched.Unit{Deadline: far + time.Duration(i)*time.Millisecond, ExecTime: time.Millisecond}
		q.Push(&units[i])
	}
	free := &units[64]
	o.set("sched.llf_push_next_ns", perOp(5, n, func(n int) {
		for i := 0; i < n; i++ {
			free.Deadline = far + time.Duration(i%97)*time.Millisecond
			q.Push(free)
			free, _ = q.Next(0)
		}
	}), n)
	dst := make([]*sched.Unit, 0, 32)
	o.set("sched.drain32_ns", perOp(5, n/32, func(n int) {
		for i := 0; i < n; i++ {
			dst = sched.DrainN(q, 0, 32, dst[:0], func(*sched.Unit) {})
			for _, u := range dst {
				q.Push(u)
			}
		}
	})/32, n/32)
}

// composeInput is the fixture of results/BENCH_compose.json: 16 candidate
// hosts per stage, 3 stages, one substream at 20 units/s.
func composeInput() core.Input {
	mk := func(i int) overlay.NodeInfo {
		return overlay.NodeInfo{ID: overlay.HashID(fmt.Sprintf("h%d", i)), Addr: "sim://x"}
	}
	chain := []string{"s0", "s1", "s2"}
	in := core.Input{
		Request:      spec.Request{ID: "probe", UnitBytes: 1250, Substreams: []spec.Substream{{Services: chain, Rate: 20}}},
		Source:       mk(1000),
		Dest:         mk(1001),
		SourceReport: monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		DestReport:   monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		Candidates:   map[string][]core.Candidate{},
		Rand:         rand.New(rand.NewSource(1)),
	}
	var cands []core.Candidate
	for h := 0; h < 16; h++ {
		cands = append(cands, core.Candidate{Info: mk(h),
			Report: monitor.Report{InBpsCap: 2e5, OutBpsCap: 2e5, DropRatio: float64(h%5) * 0.01}})
	}
	for _, svc := range chain {
		in.Candidates[svc] = cands
	}
	return in
}

func probeCompose(o *outcome, scale int) {
	n := 2000 / scale
	in, mc := composeInput(), &core.MinCost{}
	var g *core.ExecutionGraph
	var err error
	compose := func(n int) {
		for i := 0; i < n; i++ {
			if g, err = mc.Compose(in); err != nil {
				return
			}
		}
	}
	compose(10) // warm the solver pool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	o.set("core.compose_us", perOp(5, n, compose)/1e3, n)
	runtime.ReadMemStats(&m1)
	o.set("core.compose_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(5*n), 5*n)
	if err != nil {
		o.violations = append(o.violations, "probe: compose: "+err.Error())
		return
	}
	if cerr := core.CheckGraph(g, nil); cerr != nil {
		o.violations = append(o.violations, "probe: composed graph fails CheckGraph: "+cerr.Error())
	}
	degraded := map[overlay.ID]bool{g.Placements[0].Host.ID: true}
	o.set("core.compose_delta_us", perOp(5, n, func(n int) {
		for i := 0; i < n; i++ {
			if _, err = mc.ComposeDelta(in, g, degraded, nil); err != nil {
				return
			}
		}
	})/1e3, n)
	if err != nil {
		o.violations = append(o.violations, "probe: compose delta: "+err.Error())
	}

	// The same shape as a bare flow problem: source, 3 layers of 16 hosts
	// (each split into an in and an out node by a capacity arc), sink.
	const hosts, stages = 16, 3
	build := func(fg *mincostflow.Graph) (s, t int) {
		fg.Reset(2 + 2*hosts*stages)
		s, t = 0, 1
		node := func(stage, h, out int) int { return 2 + 2*(stage*hosts+h) + out }
		for st := 0; st < stages; st++ {
			for h := 0; h < hosts; h++ {
				fg.AddArc(node(st, h, 0), node(st, h, 1), 14, int64(1+h%5))
				switch st {
				case 0:
					fg.AddArc(s, node(0, h, 0), 20, 0)
				default:
					for p := 0; p < hosts; p++ {
						fg.AddArc(node(st-1, p, 1), node(st, h, 0), 20, 0)
					}
				}
				if st == stages-1 {
					fg.AddArc(node(st, h, 1), t, 20, 0)
				}
			}
		}
		return s, t
	}
	fg, sv := mincostflow.NewGraph(0), mincostflow.AcquireSolver()
	defer sv.Release()
	var res mincostflow.Result
	o.set("mincostflow.solve_us", perOp(5, n, func(n int) {
		for i := 0; i < n; i++ {
			s, t := build(fg)
			res, err = sv.MinCostFlow(fg, s, t, 20)
		}
	})/1e3, n)
	o.set("mincostflow.iterations", float64(res.Iterations), 0)
	if err != nil || res.Flow != 20 {
		o.violations = append(o.violations, fmt.Sprintf("probe: min-cost flow routed %d of 20: %v", res.Flow, err))
	}
}

func probeTenant(o *outcome, scale int) {
	pris := []spec.Priority{spec.Critical, spec.Standard, spec.BestEffort}
	g := tenant.NewGate(tenant.Config{CapacityBps: 1e9, QueueCapacity: 64})
	for i := 0; i < 1000; i++ {
		g.Admit(fmt.Sprintf("app-%04d", i), pris[i%len(pris)], 1e6, nil)
	}
	n := 2000 / scale
	var us []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		dec := g.Admit("probe", spec.Standard, 1e6, nil)
		g.Release("probe")
		us = append(us, float64(time.Since(t0))/1e3)
		if dec.State != tenant.StateAdmitted {
			o.violations = append(o.violations, "probe: tenant gate refused the probe with spare capacity")
			break
		}
	}
	o.set("tenant.admit_us_p50", median(us), len(us))
}

func probeTelemetry(o *outcome, scale int) {
	c := telemetry.NewRegistry().Counter("bench_probe_total", "probe")
	n := 2000000 / scale
	o.set("telemetry.counter_inc_ns", perOp(5, n, func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	}), n)
}

// probeTCP times the two wire layers live-loopback runs on, on loopback
// sockets: the bare TCP endpoint and the resilient pipeline around it.
func probeTCP(o *outcome, scale int) error {
	msg := transport.Message{Type: "probe", Payload: make([]byte, 1024), Datagram: true}
	n := 20000 / scale

	pair := func(wrap func(transport.Endpoint) transport.Endpoint) (a, b transport.Endpoint, err error) {
		ta, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		tb, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			ta.Close()
			return nil, nil, err
		}
		return wrap(ta), wrap(tb), nil
	}
	// stream sends n messages one way and waits for all of them.
	stream := func(a, b transport.Endpoint, n int) (enqueueNs, perMsgUs float64, err error) {
		var got atomic.Int64
		all := make(chan struct{})
		b.SetHandler(func(transport.Addr, transport.Message) {
			if got.Add(1) == int64(n) {
				close(all)
			}
		})
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for a.Send(b.Addr(), msg) != nil { // resilient queue full: let it drain
				time.Sleep(50 * time.Microsecond)
			}
		}
		enq := time.Since(t0)
		select {
		case <-all:
		case <-time.After(20 * time.Second):
			return 0, 0, fmt.Errorf("only %d of %d messages arrived", got.Load(), n)
		}
		return float64(enq) / float64(n), float64(time.Since(t0)) / float64(n) / 1e3, nil
	}

	a, b, err := pair(func(e transport.Endpoint) transport.Endpoint { return e })
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	a.SetHandler(func(transport.Addr, transport.Message) {})
	_, us, err := stream(a, b, n)
	if err != nil {
		return err
	}
	o.set("transport.tcp_msg_us", us, n)

	// Ping-pong: b echoes, a times each round trip.
	pong := make(chan struct{}, 1)
	a.SetHandler(func(transport.Addr, transport.Message) { pong <- struct{}{} })
	b.SetHandler(func(from transport.Addr, m transport.Message) { _ = b.Send(a.Addr(), m) }) // a lost echo times the probe out below
	var rtt []float64
	for i := 0; i < n/10; i++ {
		t0 := time.Now()
		if err := a.Send(b.Addr(), msg); err != nil {
			return err
		}
		select {
		case <-pong:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("ping %d got no echo", i)
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
	}
	o.set("transport.tcp_rtt_us_p50", median(rtt), len(rtt))

	ra, rb, err := pair(func(e transport.Endpoint) transport.Endpoint {
		return transport.NewResilient(e, transport.ResilientConfig{Seed: 1})
	})
	if err != nil {
		return err
	}
	defer ra.Close()
	defer rb.Close()
	ra.SetHandler(func(transport.Addr, transport.Message) {})
	enq, us, err := stream(ra, rb, n)
	if err != nil {
		return err
	}
	o.set("transport.resilient_send_ns", enq, n)
	o.set("transport.resilient_msg_us", us, n)
	return nil
}

func probeActor(o *outcome, scale int) error {
	n, err := live.Start(live.Config{Listen: "127.0.0.1:0", Name: "bench-actor", DisableGossip: true})
	if err != nil {
		return err
	}
	defer n.Close()
	k := 20000 / scale
	o.set("live.actor_roundtrip_us", perOp(5, k, func(k int) {
		for i := 0; i < k; i++ {
			n.DoSync(func() {})
		}
	})/1e3, k)
	return nil
}

// probeGossipIdle runs what rasc.New(WithGossip(true), WithTenancy(...))
// builds — 32 nodes at the facade's default link capacities — for 60
// virtual seconds with no application at all. Every member is alive the
// whole time, so any member a node holds as dead is a false verdict, and
// any budget the admission gate lost went to those verdicts.
func probeGossipIdle(o *outcome, seed int64, short bool) {
	w := simWorkloadByName("sim-compose", false)
	opts := w.options(segmentSeed(seed, 0))
	opts.EnableGossip = true
	opts.Gossip = gossip.Config{ProbeTimeout: 500 * time.Millisecond} // as the facade sets it
	opts.Tenancy = &tenant.Config{}
	sys := deploy.NewSystem(opts)
	span := 60 * time.Second
	if short {
		span = 5 * time.Second
	}
	cap0 := sys.Gate.CapacityBps()
	var bytes0 int64
	for _, id := range sys.NetIDs {
		bytes0 += sys.Net.BytesSent(id)
	}
	t0 := time.Now()
	sys.Sim.RunUntil(sys.Sim.Now() + span)
	host := time.Since(t0)
	var bytes1 int64
	dead := 0
	for i, id := range sys.NetIDs {
		bytes1 += sys.Net.BytesSent(id)
		for _, m := range sys.Gossip[i].Members() {
			if m.State == gossip.StateDead {
				dead++
			}
		}
	}
	for _, g := range sys.Gossip {
		g.Stop()
	}
	o.set("gossip.false_dead_members", float64(dead), 0)
	o.set("gossip.bytes_per_node_per_s", float64(bytes1-bytes0)/float64(w.nodes)/span.Seconds(), 0)
	o.set("gossip.host_us_per_virtual_s", float64(host)/1e3/span.Seconds(), 0)
	o.set("tenant.capacity_retained", ratio(sys.Gate.CapacityBps(), cap0), 0)
}
