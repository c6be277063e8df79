package monitor

import (
	"sort"
	"time"
)

// DefaultWindow is the default statistics window size h.
const DefaultWindow = 64

// ComponentStats is the per-component view a node reports to composers.
type ComponentStats struct {
	Service     string        `json:"service"`
	ArrivalRate float64       `json:"arrivalRate"` // data units per second
	MeanProc    time.Duration `json:"meanProc"`    // mean running time t_ci
	DropRatio   float64       `json:"dropRatio"`   // drops_n(ci) over the window
	Arrived     int64         `json:"arrived"`     // lifetime counters
	Processed   int64         `json:"processed"`
	Dropped     int64         `json:"dropped"`
}

// Report is the monitoring snapshot shipped to a composing node (the
// "performance metadata" of §3.3).
type Report struct {
	At         time.Duration             `json:"at"`
	InBpsCap   float64                   `json:"inBpsCap"`
	OutBpsCap  float64                   `json:"outBpsCap"`
	InBpsUsed  float64                   `json:"inBpsUsed"`
	OutBpsUsed float64                   `json:"outBpsUsed"`
	DropRatio  float64                   `json:"dropRatio"` // node-level, all components
	QueueLen   int                       `json:"queueLen"`
	Components map[string]ComponentStats `json:"components,omitempty"`

	// SpeedFactor is the node's CPU speed relative to the reference
	// (0 when the node does not report CPU). CPUFraction is the CPU's
	// busy fraction over the window. Together they extend the
	// availability vector beyond bandwidth — the paper's future work on
	// multiple resource constraints.
	SpeedFactor float64 `json:"speedFactor,omitempty"`
	CPUFraction float64 `json:"cpuFraction,omitempty"`
}

// AvailCPU returns the unused CPU fraction (0 when CPU is not reported).
func (r Report) AvailCPU() float64 {
	if r.SpeedFactor <= 0 {
		return 0
	}
	return max0(1 - r.CPUFraction)
}

// AvailIn returns the available input bandwidth A_n[0] = b_in.
func (r Report) AvailIn() float64 { return max0(r.InBpsCap - r.InBpsUsed) }

// AvailOut returns the available output bandwidth A_n[1] = b_out.
func (r Report) AvailOut() float64 { return max0(r.OutBpsCap - r.OutBpsUsed) }

// Availability returns the paper's availability vector A_n = [b_in, b_out].
func (r Report) Availability() []float64 { return []float64{r.AvailIn(), r.AvailOut()} }

// Utilization returns the larger of the input and output link utilization
// fractions, clamped to [0,1].
func (r Report) Utilization() float64 {
	u := 0.0
	if r.InBpsCap > 0 {
		u = r.InBpsUsed / r.InBpsCap
	}
	if r.OutBpsCap > 0 {
		if o := r.OutBpsUsed / r.OutBpsCap; o > u {
			u = o
		}
	}
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Row is one component's statistics row. A component holds the handle
// Arrive returns and passes it back on every later observation, so the
// per-unit path does no keyed lookup. Forget marks the row forgotten as it
// drops it from the node; a holder seeing the mark goes back to the node
// (Row) for the key's current row, which is nil until the next arrival
// opens a fresh one.
type Row struct {
	service   string
	arrivals  RateEstimator
	proc      DurationWindow
	drops     RatioWindow
	arrived   int64
	processed int64
	dropped   int64
	forgotten bool
}

// Forgotten reports whether Forget has dropped the row from its node.
func (c *Row) Forgotten() bool { return c.forgotten }

// MeanProc returns the row's mean running time t_ci (0 for a nil row).
func (c *Row) MeanProc() time.Duration {
	if c == nil {
		return 0
	}
	return c.proc.Mean()
}

// NodeMonitor maintains every window for one node.
type NodeMonitor struct {
	window     int
	inCap      float64
	outCap     float64
	inMeter    *ByteRateMeter
	outMeter   *ByteRateMeter
	busyMeter  *BusyMeter
	speed      float64
	cpus       int
	nodeDrops  *RatioWindow
	components map[string]*Row
	queueLen   func() int
}

// NewNodeMonitor creates a monitor for a node with the given access-link
// capacities (bits per second) and window size h (0 selects DefaultWindow).
func NewNodeMonitor(inBpsCap, outBpsCap float64, h int) *NodeMonitor {
	if h <= 0 {
		h = DefaultWindow
	}
	return &NodeMonitor{
		window:     h,
		inCap:      inBpsCap,
		outCap:     outBpsCap,
		inMeter:    NewByteRateMeter(h),
		outMeter:   NewByteRateMeter(h),
		busyMeter:  NewBusyMeter(h),
		nodeDrops:  NewRatioWindow(h),
		components: make(map[string]*Row),
	}
}

// SetCPU declares the node's CPU speed factor, enabling CPU reporting.
func (m *NodeMonitor) SetCPU(speedFactor float64) { m.speed = speedFactor }

// SetCPUCount declares how many execution contexts feed ObserveBusy. The
// busy meter accumulates the contexts' busy time jointly, so the reported
// CPUFraction is normalized by n to stay in [0, 1]. Engines only call this
// when running more than one data-plane shard; the default divisor is 1.
func (m *NodeMonitor) SetCPUCount(n int) {
	if n >= 1 {
		m.cpus = n
	}
}

// ObserveBusy records a completed CPU busy period of length d ending now.
func (m *NodeMonitor) ObserveBusy(now, d time.Duration) { m.busyMeter.Observe(now, d) }

// SetQueueLenFunc installs a callback reporting the scheduler queue length.
func (m *NodeMonitor) SetQueueLenFunc(f func() int) { m.queueLen = f }

// ObserveInbound records size bytes arriving at the node at time now for
// something that is not a component (a sink): the in-meter is charged and
// no component row is created.
func (m *NodeMonitor) ObserveInbound(now time.Duration, size int) {
	m.inMeter.Observe(now, size)
}

// Row returns the current row of the component identified by key, or nil
// when it has none (no arrival since its last Forget).
func (m *NodeMonitor) Row(key string) *Row { return m.components[key] }

// Arrive records a data unit of size bytes arriving at time now for the
// component identified by key, on the row c it holds, and returns the row
// to hold from now on. A nil or forgotten c is resolved by key first: the
// key's current row, or a fresh one. A component's row lives from its
// first arrival until Forget.
func (m *NodeMonitor) Arrive(c *Row, key, service string, now time.Duration, size int) *Row {
	m.inMeter.Observe(now, size)
	if c == nil || c.forgotten {
		c = m.components[key]
		if c == nil {
			c = &Row{
				service:  service,
				arrivals: *NewRateEstimator(m.window),
				proc:     *NewDurationWindow(m.window),
				drops:    *NewRatioWindow(m.window),
			}
			m.components[key] = c
		}
	}
	c.arrivals.Observe(now)
	c.arrived++
	return c
}

// Processed records a completed execution taking proc time. The node-level
// drop window always sees it; the row c only while it is live, so a unit
// that finishes after Forget (queued when its request was torn down)
// touches no row and creates none. c may be nil.
func (m *NodeMonitor) Processed(c *Row, proc time.Duration) {
	m.nodeDrops.Observe(false)
	if c != nil && !c.forgotten {
		c.proc.Observe(proc)
		c.processed++
		c.drops.Observe(false)
	}
}

// Dropped records a dropped data unit, under the same row rule as
// Processed. Sources and sinks pass nil: they never have a row.
func (m *NodeMonitor) Dropped(c *Row) {
	m.nodeDrops.Observe(true)
	if c != nil && !c.forgotten {
		c.dropped++
		c.drops.Observe(true)
	}
}

// ObserveArrival is Arrive resolved by key alone, for callers that hold no
// row (the frozen bench/ probes).
func (m *NodeMonitor) ObserveArrival(key, service string, now time.Duration, size int) {
	m.Arrive(nil, key, service, now, size)
}

// ObserveProcessed is Processed on the key's current row, for callers that
// hold no row (the frozen bench/ probes). The service name is the row's,
// set at the first arrival; the parameter stays because the probes pass
// it.
func (m *NodeMonitor) ObserveProcessed(key, _ string, proc time.Duration) {
	m.Processed(m.components[key], proc)
}

// Forget discards the row of the component identified by key, marking it
// forgotten for whoever holds it. Node-level windows keep what the
// component contributed.
func (m *NodeMonitor) Forget(key string) {
	if c := m.components[key]; c != nil {
		c.forgotten = true
		delete(m.components, key)
	}
}

// ObserveSend records size bytes leaving the node at time now.
func (m *NodeMonitor) ObserveSend(now time.Duration, size int) {
	m.outMeter.Observe(now, size)
}

// ArrivalRate returns the current arrival rate of a component (units/sec).
func (m *NodeMonitor) ArrivalRate(key string) float64 {
	if c, ok := m.components[key]; ok {
		return c.arrivals.Rate()
	}
	return 0
}

// Period returns the inferred inter-arrival period p_ci of a component.
func (m *NodeMonitor) Period(key string) time.Duration {
	if c, ok := m.components[key]; ok {
		return c.arrivals.Period()
	}
	return 0
}

// DropRatio returns the node-level drop ratio over the window.
func (m *NodeMonitor) DropRatio() float64 { return m.nodeDrops.Ratio() }

// Report assembles the full monitoring snapshot at time now: the node
// level fields (node) and one row per component.
func (m *NodeMonitor) Report(now time.Duration) Report {
	r := m.node(now)
	r.Components = make(map[string]ComponentStats, len(m.components))
	keys := make([]string, 0, len(m.components))
	for k := range m.components {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := m.components[k]
		r.Components[k] = ComponentStats{
			Service:     c.service,
			ArrivalRate: c.arrivals.Rate(),
			MeanProc:    c.proc.Mean(),
			DropRatio:   c.drops.Ratio(),
			Arrived:     c.arrived,
			Processed:   c.processed,
			Dropped:     c.dropped,
		}
	}
	export(r)
	return r
}

// AppendDigest appends the node's stats digest at time now (the package
// AppendDigest of Report's node-level fields) without assembling the
// per-component rows, so serving one costs the same whatever the node
// runs. It counts as a report served; the snapshot gauges keep the last
// full Report's values.
func (m *NodeMonitor) AppendDigest(b []byte, now time.Duration) []byte {
	telReports.Inc()
	return AppendDigest(b, m.node(now))
}

// node fills the nine node-level fields of a report at time now — the
// fields a stats digest carries — and leaves Components nil.
func (m *NodeMonitor) node(now time.Duration) Report {
	r := Report{
		At:          now,
		InBpsCap:    m.inCap,
		OutBpsCap:   m.outCap,
		InBpsUsed:   m.inMeter.Bps(now),
		OutBpsUsed:  m.outMeter.Bps(now),
		DropRatio:   m.nodeDrops.Ratio(),
		SpeedFactor: m.speed,
		CPUFraction: m.busyMeter.Fraction(now),
	}
	if m.cpus > 1 {
		r.CPUFraction /= float64(m.cpus)
	}
	if m.queueLen != nil {
		r.QueueLen = m.queueLen()
	}
	return r
}
