package stream

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/metrics"
	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// Sentinel errors of the submit path, wrapped with their cause; the facade
// re-exports them.
var (
	ErrNoDirectory   = errors.New("stream: engine has no discovery directory")
	ErrDiscovery     = errors.New("stream: discovery failed")
	ErrInstantiation = errors.New("stream: instantiation failed")
)

// Submit runs the full RASC composition pipeline for a request originated
// at this engine (the steps of §3.1): discover the hosts offering each
// requested service through the DHT, fetch their monitoring reports,
// compose the execution graph with the given composer, instantiate the
// components on their hosts, and start the sources and sinks. The callback
// runs exactly once with the composed graph or an error.
//
// The engine must have been built with a discovery directory.
func (e *Engine) Submit(req spec.Request, composer core.Composer, timeout time.Duration, cb func(*core.ExecutionGraph, error)) {
	if err := req.Validate(); err != nil {
		cb(nil, err)
		return
	}
	if e.Dir == nil {
		cb(nil, ErrNoDirectory)
		return
	}
	// The admission gate decides before any network work: a rejected or
	// queued request costs no RPC and leaves no state anywhere, and an
	// admitted one is capped to its fair-share rate. desired keeps the
	// original rates, so upgrades know what the application wants.
	desired := req
	req, cb, parked := e.admit(req, composer, timeout, cb)
	if parked {
		return
	}
	e.gatherInput(req, timeout, func(in core.Input, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		e.compose(in, desired, composer, timeout, cb)
	})
}

// gatherInput is the discover → fetch-statistics half of §3.1, pipelined:
// one directory lookup per requested service, and as each lookup lands a
// stats fetch to every host no earlier lookup already named — from the
// local monitor, the gossip-fresh stats provider, or a stats RPC, in that
// order. It finishes when every lookup and every fetch has answered, with
// the composer input built from what they returned, or with the first
// lookup error wrapped in ErrDiscovery. A host whose fetch times out is
// pruned from the overlay state and, like any host whose fetch failed, is
// not a candidate.
func (e *Engine) gatherInput(req spec.Request, timeout time.Duration, cb func(core.Input, error)) {
	if e.Dir == nil {
		cb(core.Input{}, ErrNoDirectory)
		return
	}
	services := req.Services()
	hosts := make(map[string][]overlay.NodeInfo, len(services))
	reports := make(map[overlay.ID]monitor.Report)
	asked := make(map[overlay.ID]bool)
	var lookupErr error
	// pending counts unanswered lookups and stats RPCs, plus one for this
	// call itself until it has issued every lookup, so a directory that
	// answers inside Lookup cannot finish the gather early.
	pending := 1
	settle := func() {
		if pending--; pending > 0 {
			return
		}
		if lookupErr != nil {
			cb(core.Input{}, fmt.Errorf("%w: %w", ErrDiscovery, lookupErr))
			return
		}
		cb(e.buildInput(req, hosts, reports), nil)
	}
	fetch := func(h overlay.NodeInfo) {
		if h.ID == e.node.ID() {
			reports[h.ID] = e.Monitor.Report(e.clk.Now())
			return
		}
		if e.statsProvider != nil {
			if rep, ok := e.statsProvider(h.ID); ok {
				reports[h.ID] = rep // gossip-fresh digest: no round trip
				return
			}
		}
		pending++
		e.node.Request(h.Addr, appStats, nil, timeout, func(body []byte, err error) {
			if err == nil {
				if rep, perr := monitor.ParseDigest(body); perr == nil {
					reports[h.ID] = rep
				}
			} else if errors.Is(err, overlay.ErrTimeout) {
				// A silent host is treated as failed: prune it from the
				// local routing state so subsequent lookups and routes
				// steer around it.
				e.node.RemovePeer(h.ID)
			}
			settle()
		})
	}
	for _, svc := range services {
		svc := svc
		pending++
		e.Dir.Lookup(svc, timeout, func(found []overlay.NodeInfo, err error) {
			if err != nil && lookupErr == nil {
				lookupErr = err
			}
			hosts[svc] = found
			if lookupErr == nil { // a failed gather asks no one else
				for _, h := range found {
					if !asked[h.ID] {
						asked[h.ID] = true
						fetch(h)
					}
				}
			}
			settle()
		})
	}
	settle()
}

// buildInput assembles the composer input from discovery and monitoring
// results: the origin is both source and destination, and hosts whose
// stats fetch failed are excluded from candidacy.
func (e *Engine) buildInput(req spec.Request, hosts map[string][]overlay.NodeInfo,
	reports map[overlay.ID]monitor.Report) core.Input {

	self := e.node.Info()
	own := e.Monitor.Report(e.clk.Now())
	in := core.Input{
		Request:      req,
		Source:       self,
		Dest:         self,
		SourceReport: own,
		DestReport:   own,
		Candidates:   make(map[string][]core.Candidate),
		Catalog:      e.Catalog,
		Rand:         e.rng,
	}
	for svc, list := range hosts {
		var cands []core.Candidate
		for _, h := range list {
			rep, ok := reports[h.ID]
			if !ok {
				continue // stats fetch failed: exclude the host
			}
			cands = append(cands, core.Candidate{Info: h, Report: rep})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Info.ID.Cmp(cands[j].Info.ID) < 0 })
		in.Candidates[svc] = cands
	}
	// Federated deployments compose over the local cluster alone; the
	// filter is the identity in flat deployments (empty cluster), keeping
	// their composition bit-identical to the unfederated composer.
	// Request.Cluster overrides the origin's own cluster (a no-op in flat
	// deployments, which carry no cluster tags to filter on).
	cluster := e.cluster
	if req.Cluster != "" && cluster != "" {
		cluster = req.Cluster
	}
	return core.FilterCluster(in, cluster)
}

// compose runs composition over the gathered input, then moves on to
// instantiation.
func (e *Engine) compose(in core.Input, desired spec.Request, composer core.Composer, timeout time.Duration,
	cb func(*core.ExecutionGraph, error)) {

	req := in.Request
	st := e.composeCapture[req.ID]
	if st != nil {
		in.Stats = st
	}
	start := e.clk.Now()
	g, err := composer.Compose(in)
	if st != nil {
		e.observeSolve(req.ID, st, start, err)
	}
	if err != nil {
		if e.fed != nil && errors.Is(err, core.ErrNoFeasiblePlacement) {
			// The local cluster cannot carry the request: try to hand the
			// unplaceable substreams across a boundary. The coordinator
			// falls back to the original error when no remote cluster
			// answers, so a flat failure stays a flat failure.
			e.fed.ComposeFederated(in, composer, err, func(g *core.ExecutionGraph, ferr error) {
				if ferr != nil {
					cb(nil, ferr)
					return
				}
				e.instantiate(g, desired, timeout, cb)
			})
			return
		}
		cb(nil, err)
		return
	}
	e.instantiate(g, desired, timeout, cb)
}

// stageUnitBytes computes the input unit size at every stage of a
// substream, applying the services' byte ratios.
func (e *Engine) stageUnitBytes(req spec.Request, substream int) []int {
	chain := req.Substreams[substream].Services
	sizes := make([]int, len(chain)+1)
	size := float64(req.UnitBytes)
	for j, svc := range chain {
		sizes[j] = int(size)
		if def, ok := e.Catalog[svc]; ok && def.BytesRatio > 0 {
			size *= def.BytesRatio
		}
	}
	sizes[len(chain)] = int(size)
	return sizes
}

// instantiate ships every placement to its host and, in the same instant,
// creates the request's sinks and starts its sources: the first units
// travel while the acks do, and a host they reach ahead of its instantiate
// message holds them (Engine.holdEarly). The acks are the commit: once all
// are in the application is registered and cb runs; a failed or timed-out
// one rolls everything back, sources included.
func (e *Engine) instantiate(g *core.ExecutionGraph, desired spec.Request, timeout time.Duration, cb func(*core.ExecutionGraph, error)) {
	byPlacement, sourceOuts := graphOuts(g)
	remaining := len(g.Placements)
	var failed error
	done := func() {
		if failed != nil {
			// Roll back the partial instantiation: the sources are running,
			// and hosts that acked are holding components that will never
			// see traffic, silently consuming their capacity. Teardown is
			// idempotent on hosts that never acked, so blanket-tearing the
			// graph leaves every host's view exactly as before the attempt.
			e.teardown(g, timeout)
			cb(nil, fmt.Errorf("%w for request %s: %w", ErrInstantiation, g.Request.ID, failed))
			return
		}
		e.commit(g, desired)
		cb(g, nil)
	}
	// Sources first: a request that fails inside Request (an unencodable
	// name) rolls back at once, and the rollback must find them.
	e.activate(g, sourceOuts)
	if remaining == 0 {
		done()
		return
	}
	for _, p := range g.Placements {
		p := p
		e.requestInstantiate(g, p, byPlacement, timeout, func(err error) {
			if err != nil && failed == nil {
				failed = fmt.Errorf("%s@%s: %w", p.Service, p.Host.Addr, err)
			}
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}

// requestInstantiate sends one placement's instantiate RPC. cb runs exactly
// once; a message that cannot be framed fails before the call returns, as
// in overlay.Node.Request.
func (e *Engine) requestInstantiate(g *core.ExecutionGraph, p core.Placement, byPlacement map[string][]outSpec, timeout time.Duration, cb func(error)) {
	body, err := appendInstantiate(nil, e.instantiateMsgFor(g, p, byPlacement))
	if err != nil {
		cb(err)
		return
	}
	e.node.Request(p.Host.Addr, appInstantiate, body, timeout, func(_ []byte, err error) { cb(err) })
}

// instantiateMsgFor builds the instantiation message for one placement of
// an execution graph.
func (e *Engine) instantiateMsgFor(g *core.ExecutionGraph, p core.Placement, byPlacement map[string][]outSpec) instantiateMsg {
	sizes := e.stageUnitBytes(g.Request, p.Substream)
	def := e.Catalog[p.Service]
	ratio := def.RateRatio
	if ratio <= 0 {
		ratio = 1
	}
	return instantiateMsg{
		Req:       g.Request.ID,
		Substream: p.Substream,
		Stage:     p.Stage,
		Service:   p.Service,
		Rate:      p.Rate,
		UnitBytes: sizes[p.Stage],
		ProcHint:  def.ProcPerUnit,
		RateRatio: ratio,
		BytesOut:  sizes[p.Stage+1],
		Outs:      byPlacement[componentKey(g.Request.ID, p.Substream, p.Stage)+"@"+p.Host.ID.String()],
	}
}

// activate creates the request's sinks and starts its sources. It is the
// only place sources are started, and runs when the instantiate messages
// are sent.
func (e *Engine) activate(g *core.ExecutionGraph, sourceOuts map[int][]outSpec) {
	// A recompose stopped the request here a moment ago; its new units are
	// early at the origin's own components, not stale.
	delete(e.stopped, g.Request.ID)
	for l, ss := range g.Request.Substreams {
		period := time.Duration(float64(time.Second) / float64(ss.Rate))
		slack := time.Duration(float64(period) * e.cfg.TimelyFactor)
		sink := newSink(g.Request.ID, l, len(ss.Services), period, slack, g.Request.PlayoutDelay)
		if e.cfg.KeepDelaySamples {
			sink.Delays = &metrics.Histogram{}
		}
		e.sinks[sinkKey(g.Request.ID, l)] = sink
		e.startSource(g.Request.ID, l, ss, g.Request.UnitBytes, sourceOuts[l])
	}
}

// commit registers an application every host has acknowledged: for
// adaptation, and in the admission gate's per-host ledger. desired is the
// request as originally submitted (its rates may exceed a best-effort
// admission).
func (e *Engine) commit(g *core.ExecutionGraph, desired spec.Request) {
	e.origins[g.Request.ID] = &originState{
		graph:         g,
		desired:       desired,
		lastReceived:  make(map[int]int64),
		lastCheck:     e.clk.Now(),
		availReceived: make(map[int]int64),
		availAt:       e.clk.Now(),
	}
	e.chargePlacements(g)
}

// Teardown stops a request everywhere: local sources/components plus a
// teardown RPC to every placement host in the graph. The application's
// admission is released — this is the origin-side "the stream is done"
// path; internal restarts (recompose, preemption, rollback) use teardown
// directly so the tenant keeps or re-queues its slot.
func (e *Engine) Teardown(g *core.ExecutionGraph, timeout time.Duration) {
	if e.tenantGate != nil {
		e.tenantGate.Release(g.Request.ID)
		delete(e.pendingAdmission, g.Request.ID)
	}
	e.teardown(g, timeout)
}

// teardown is Teardown without the admission release.
func (e *Engine) teardown(g *core.ExecutionGraph, timeout time.Duration) {
	if e.fed != nil {
		// Refund the request's boundary-link credits (local ledger and
		// remote clusters); exactly-once even when a failed instantiation
		// rollback and the final teardown both pass through here.
		e.fed.ReleaseApp(g.Request.ID)
	}
	e.StopRequest(g.Request.ID)
	body, err := appendRequestID(nil, g.Request.ID)
	if err != nil {
		return // no host was ever sent a component under an ID no frame carries
	}
	sent := make(map[overlay.ID]bool)
	for _, p := range g.Placements {
		if sent[p.Host.ID] || p.Host.ID == e.node.ID() {
			continue
		}
		sent[p.Host.ID] = true
		hostID := p.Host.ID
		e.node.Request(p.Host.Addr, appTeardown, body, timeout, func(_ []byte, err error) {
			if errors.Is(err, overlay.ErrTimeout) {
				e.node.RemovePeer(hostID)
			}
		})
	}
}
