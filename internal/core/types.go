// Package core implements the paper's contribution: rate-based composition
// of stream-processing applications. Given a service request, the
// candidate hosts per service (from discovery) and their monitoring reports
// (availability vectors and drop ratios), a Composer produces an execution
// graph — component placements with assigned rates and the data-flow edges
// between them — such that each substream's rate requirement is met.
//
// Three composers are provided: MinCost (RASC's algorithm: a reduction to
// minimum-cost flow that can split a service across several component
// instances), and the paper's two baselines, Random and Greedy. All three
// honour rate ratios ≠ 1 (the extension §3.5 sketches) through one
// arithmetic, spec.Chain: a substream's rate is what it delivers at the
// sink, and within a substream every instance of stage j runs at the same
// multiple s_j of it, so the flow reduction stays exact once each layer is
// rescaled.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// Candidate is a host offering a service, together with its latest
// monitoring report.
type Candidate struct {
	Info   overlay.NodeInfo
	Report monitor.Report
}

// Input gathers everything a composer needs for one request.
type Input struct {
	Request spec.Request
	// Source emits the stream; Dest receives the results (the user).
	Source, Dest overlay.NodeInfo
	// SourceReport and DestReport supply the endpoints' availability.
	SourceReport, DestReport monitor.Report
	// Candidates lists the hosts offering each service.
	Candidates map[string][]Candidate
	// Catalog supplies service definitions (per-unit costs, rate and
	// byte ratios).
	Catalog map[string]spec.ServiceDef
	// Rand drives randomized composers; deterministic under a fixed
	// seed.
	Rand *rand.Rand
	// Headroom scales measured availability before it becomes flow
	// capacity (0 selects DefaultHeadroom). Monitoring reports lag the
	// true load by one window, so composing against 100% of measured
	// availability overcommits links; all composers share this margin.
	Headroom float64
	// Stats, when non-nil, receives solve statistics (candidate counts,
	// flow-graph sizes, solver iterations, duration, feasibility) for
	// the decision tracing plane.
	Stats *ComposeStats
}

// DefaultHeadroom is the fraction of measured availability composers plan
// against.
const DefaultHeadroom = 0.9

func (in Input) headroom() float64 {
	if in.Headroom <= 0 || in.Headroom > 1 {
		return DefaultHeadroom
	}
	return in.Headroom
}

// Placement is one component instance with its assigned input rate.
type Placement struct {
	Substream int              `json:"substream"`
	Stage     int              `json:"stage"`
	Service   string           `json:"service"`
	Host      overlay.NodeInfo `json:"host"`
	Rate      float64          `json:"rate"` // data units per second into the component
}

// Edge is a data path between two stages with its assigned rate.
// FromStage -1 denotes the source; ToStage == len(chain) the destination.
type Edge struct {
	Substream int              `json:"substream"`
	FromStage int              `json:"fromStage"`
	ToStage   int              `json:"toStage"`
	From      overlay.NodeInfo `json:"from"`
	To        overlay.NodeInfo `json:"to"`
	Rate      float64          `json:"rate"`
}

// ExecutionGraph is the outcome of composition: the mapping of the service
// request graph onto overlay nodes.
type ExecutionGraph struct {
	Request  spec.Request `json:"request"`
	Composer string       `json:"composer"`
	Source   overlay.NodeInfo
	Dest     overlay.NodeInfo
	// Placements holds every component instance; Edges every data path.
	Placements []Placement `json:"placements"`
	Edges      []Edge      `json:"edges"`
}

// Composer turns a request plus system state into an execution graph.
type Composer interface {
	// Compose returns an execution graph meeting the rate requirements,
	// or an error when the request cannot be accommodated.
	Compose(in Input) (*ExecutionGraph, error)
	// Name identifies the composer in reports ("mincost", "greedy", …).
	Name() string
}

// ErrNoFeasiblePlacement is returned when a request's rate requirements
// cannot be met with the available capacity.
var ErrNoFeasiblePlacement = errors.New("core: no feasible placement")

// composers is the one table of composer names: ByName builds from it,
// and the facade's list of accepted names is Names().
var composers = []struct {
	name  string
	build func() Composer
}{
	{"mincost", func() Composer { return &MinCost{} }},
	{"mincost-nosplit", func() Composer { return &MinCost{NoSplit: true} }},
	{"mincost-cpu", func() Composer { return &MinCost{UseCPU: true} }},
	{"mincost-besteffort", func() Composer { return &MinCost{BestEffortFraction: 0.5} }},
	{"greedy", func() Composer { return Greedy{} }},
	{"random", func() Composer { return Random{} }},
}

// Names lists the composers ByName builds, in documentation order.
func Names() []string {
	names := make([]string, len(composers))
	for i, c := range composers {
		names[i] = c.name
	}
	return names
}

// ByName builds a composer from its report name, one of Names().
func ByName(name string) (Composer, error) {
	for _, c := range composers {
		if c.name == name {
			return c.build(), nil
		}
	}
	return nil, fmt.Errorf("core: unknown composer %q", name)
}

// unitBits returns the bits per data unit for the request.
func unitBits(req spec.Request) float64 { return float64(req.UnitBytes) * 8 }

// maxRateUnits is the paper's r_max(n) = min(b_in, b_out) expressed in data
// units per second for the request's unit size, scaled by the planning
// headroom.
func maxRateUnits(rep monitor.Report, in Input) int {
	minBps := rep.AvailIn()
	if out := rep.AvailOut(); out < minBps {
		minBps = out
	}
	return int(minBps * in.headroom() / unitBits(in.Request))
}

// capTracker tracks remaining per-host capacity across the substreams of
// one composition, mirroring the "update the node capacities" step of
// Algorithm 1. Each host seen gets a dense slot at seed time, and every
// other method takes the slot, so the per-arc capacity reads and the
// read-back's deductions index slices instead of hashing host IDs.
// Bandwidth is tracked in data units/sec; when CPU tracking is seeded
// (the multi-resource extension), remaining CPU fractions are tracked
// alongside and a component's capacity is the minimum over both resource
// classes.
type capTracker struct {
	slots     map[overlay.ID]int
	remaining []int
	cpuFrac   []float64
	// speed is the host's CPU speed factor; 0 leaves the host
	// bandwidth-only.
	speed []float64
	// src and dst are the endpoints' slots (the same one when the
	// source is the destination).
	src, dst int
}

// reset empties the tracker for a new composition, keeping its storage.
func (c *capTracker) reset() {
	if c.slots == nil {
		c.slots = make(map[overlay.ID]int)
	}
	clear(c.slots)
	c.remaining = c.remaining[:0]
	c.cpuFrac = c.cpuFrac[:0]
	c.speed = c.speed[:0]
}

// seed records a host's initial bandwidth capacity the first time it is
// seen, and returns the host's slot.
func (c *capTracker) seed(id overlay.ID, units int) int {
	if s, ok := c.slots[id]; ok {
		return s
	}
	s := len(c.remaining)
	c.slots[id] = s
	c.remaining = append(c.remaining, max(units, 0))
	c.cpuFrac = append(c.cpuFrac, 0)
	c.speed = append(c.speed, 0)
	return s
}

// seedInput resets the tracker for a composition of in: the source's
// uplink and the destination's downlink into slots src and dst, then
// every candidate's r_max(n), and with cpu its CPU budget too. Seeded
// first, an endpoint's budget wins when it also offers a service.
func (c *capTracker) seedInput(in Input, cpu bool) {
	c.reset()
	c.src = c.seed(in.Source.ID, int(in.SourceReport.AvailOut()*in.headroom()/unitBits(in.Request)))
	c.dst = c.seed(in.Dest.ID, int(in.DestReport.AvailIn()*in.headroom()/unitBits(in.Request)))
	for _, cands := range in.Candidates {
		for i := range cands {
			cd := &cands[i]
			s := c.seed(cd.Info.ID, maxRateUnits(cd.Report, in))
			if cpu {
				c.seedCPU(s, cd.Report.SpeedFactor, cd.Report.AvailCPU()*in.headroom())
			}
		}
	}
}

// slot returns a seeded host's slot; ok is false for a host never seeded,
// which has no capacity.
func (c *capTracker) slot(id overlay.ID) (s int, ok bool) {
	s, ok = c.slots[id]
	return s, ok
}

// seedCPU records a host's CPU speed factor and available CPU fraction
// the first time a positive speed is seen for it.
func (c *capTracker) seedCPU(s int, speed, availFrac float64) {
	if c.speed[s] > 0 || speed <= 0 {
		return
	}
	c.speed[s] = speed
	c.cpuFrac[s] = max(availFrac, 0)
}

// units returns how many delivered units/sec the host's remaining
// bandwidth carries for a stage charging charge request units per
// delivered unit.
func (c *capTracker) units(s int, charge float64) int64 {
	return int64(float64(c.remaining[s])/charge + chargeEpsilon)
}

// capacityFor returns the host's capacity in delivered units/sec for
// stage st of a service with the given per-unit reference processing
// cost: the minimum of the bandwidth budget and (when CPU is tracked) the
// CPU budget, which the stage spends at its input rate.
func (c *capTracker) capacityFor(s int, procPerUnit time.Duration, st spec.Stage) int64 {
	units := c.units(s, st.Charge())
	speed := c.speed[s]
	if speed == 0 || procPerUnit <= 0 {
		return units
	}
	cpuUnits := int64(c.cpuFrac[s] * speed * float64(time.Second) / (float64(procPerUnit) * st.Scale))
	return min(units, cpuUnits)
}

// consume charges the host for f delivered units/sec at charge request
// units each.
func (c *capTracker) consume(s int, f, charge float64) {
	c.remaining[s] = max(c.remaining[s]-int(math.Ceil(f*charge-chargeEpsilon)), 0)
}

// consumeCPU deducts the CPU fraction a component consumes at the given
// input rate.
func (c *capTracker) consumeCPU(s int, rate float64, procPerUnit time.Duration) {
	speed := c.speed[s]
	if speed == 0 || procPerUnit <= 0 {
		return
	}
	c.cpuFrac[s] = max(c.cpuFrac[s]-rate*float64(procPerUnit)/(speed*float64(time.Second)), 0)
}

// chargeEpsilon absorbs float rounding when a ratio's scale turns a whole
// number of units into a product a hair off it.
const chargeEpsilon = 1e-9

// Stages returns the service chain of substream l.
func stageServices(req spec.Request, l int) []string { return req.Substreams[l].Services }

// procFor returns the service's reference per-unit processing cost from
// the input catalog (0 when unknown, which disables CPU capping for it).
func procFor(in Input, svc string) time.Duration {
	if in.Catalog == nil {
		return 0
	}
	return in.Catalog[svc].ProcPerUnit
}

// CheckGraph validates the structural invariants of an execution graph:
// per-component flow conservation (inflow equals the placement's assigned
// rate, outflow equals inflow times the stage's rate ratio), source and
// destination totals matching the rate requirements, and edges only
// between adjacent stages. A nil catalog assumes every rate ratio is 1.
func CheckGraph(g *ExecutionGraph, catalog map[string]spec.ServiceDef) error {
	const tol = 1e-6
	var stages []spec.Stage
	for l, ss := range g.Request.Substreams {
		q := len(ss.Services)
		stages = spec.Chain(stages[:0], catalog, ss.Services, g.Request.UnitBytes)
		inflow := make(map[int]map[overlay.ID]float64)  // stage -> host -> in
		outflow := make(map[int]map[overlay.ID]float64) // stage -> host -> out
		add := func(m map[int]map[overlay.ID]float64, stage int, id overlay.ID, v float64) {
			if m[stage] == nil {
				m[stage] = make(map[overlay.ID]float64)
			}
			m[stage][id] += v
		}
		var srcOut, dstIn float64
		for _, e := range g.Edges {
			if e.Substream != l {
				continue
			}
			if e.ToStage != e.FromStage+1 {
				return fmt.Errorf("core: edge skips stages (%d -> %d)", e.FromStage, e.ToStage)
			}
			if e.Rate <= 0 {
				return fmt.Errorf("core: non-positive edge rate %g", e.Rate)
			}
			if e.FromStage == -1 {
				srcOut += e.Rate
			} else {
				add(outflow, e.FromStage, e.From.ID, e.Rate)
			}
			if e.ToStage == q {
				dstIn += e.Rate
			} else {
				add(inflow, e.ToStage, e.To.ID, e.Rate)
			}
		}
		want := float64(ss.Rate)
		for _, p := range g.Placements {
			if p.Substream != l {
				continue
			}
			if p.Rate <= 0 {
				return fmt.Errorf("core: non-positive placement rate %g", p.Rate)
			}
			in := inflow[p.Stage][p.Host.ID]
			if diff := in - p.Rate; diff > tol || diff < -tol {
				return fmt.Errorf("core: substream %d stage %d host %v: inflow %g != rate %g",
					l, p.Stage, p.Host.ID, in, p.Rate)
			}
			ratio := 1.0
			if p.Stage >= 0 && p.Stage < q {
				ratio = stages[p.Stage].Ratio
			}
			out := outflow[p.Stage][p.Host.ID]
			if diff := out - p.Rate*ratio; diff > tol || diff < -tol {
				return fmt.Errorf("core: substream %d stage %d host %v: outflow %g != %g",
					l, p.Stage, p.Host.ID, out, p.Rate*ratio)
			}
		}
		if diff := dstIn - want; diff > tol || diff < -tol {
			return fmt.Errorf("core: substream %d delivers %g, want %g", l, dstIn, want)
		}
		if srcOut <= 0 {
			return fmt.Errorf("core: substream %d has no source outflow", l)
		}
	}
	return nil
}
