package stream

import "sort"

// flowCounters accumulates one engine's per-substream data-plane counters.
// Sources charge emissions, components charge forwards, and every drop
// cause (queue-full, laxity, uplink, downlink, stale — including source
// uplink drops, which the engine's Drops* diagnostic counters do not count)
// charges the dropped fields, so emitted = delivered + dropped + in-flight
// holds per substream across a deployment.
type flowCounters struct {
	emittedUnits   int64
	emittedBytes   int64
	forwardedUnits int64
	forwardedBytes int64
	droppedUnits   int64
	droppedBytes   int64
}

// flowFor returns the engine's counters for a request substream, creating
// them on first use. Counters survive StopRequest (like sinks) so the
// statistics of a finished application remain readable.
func (e *Engine) flowFor(req string, substream int) *flowCounters {
	key := sinkKey(req, substream)
	f, ok := e.flows[key]
	if !ok {
		f = &flowCounters{}
		e.flows[key] = f
	}
	return f
}

// Throughput is one engine's typed data-plane snapshot for a request
// substream: how many units (and bytes) its local source emitted, its
// components forwarded downstream, its runtime dropped for any cause, and
// its local sink delivered. The counters survive StopRequest; aggregate
// engine snapshots with Accumulate for a deployment-wide view.
type Throughput struct {
	Req       string `json:"req"`
	Substream int    `json:"substream"`

	EmittedUnits   int64 `json:"emittedUnits"`
	EmittedBytes   int64 `json:"emittedBytes"`
	ForwardedUnits int64 `json:"forwardedUnits"`
	ForwardedBytes int64 `json:"forwardedBytes"`
	DroppedUnits   int64 `json:"droppedUnits"`
	DroppedBytes   int64 `json:"droppedBytes"`
	DeliveredUnits int64 `json:"deliveredUnits"`
	DeliveredBytes int64 `json:"deliveredBytes"`
}

// Accumulate adds another engine's snapshot of the same substream into t.
func (t *Throughput) Accumulate(o Throughput) {
	t.EmittedUnits += o.EmittedUnits
	t.EmittedBytes += o.EmittedBytes
	t.ForwardedUnits += o.ForwardedUnits
	t.ForwardedBytes += o.ForwardedBytes
	t.DroppedUnits += o.DroppedUnits
	t.DroppedBytes += o.DroppedBytes
	t.DeliveredUnits += o.DeliveredUnits
	t.DeliveredBytes += o.DeliveredBytes
}

// Throughput returns this engine's data-plane snapshot for one request
// substream. Every field is local to this engine: the origin engine holds
// the emitted (and usually delivered) counters while intermediate hosts
// contribute forwards and drops.
func (e *Engine) Throughput(req string, substream int) Throughput {
	t := Throughput{Req: req, Substream: substream}
	if f, ok := e.flows[sinkKey(req, substream)]; ok {
		t.EmittedUnits = f.emittedUnits
		t.EmittedBytes = f.emittedBytes
		t.ForwardedUnits = f.forwardedUnits
		t.ForwardedBytes = f.forwardedBytes
		t.DroppedUnits = f.droppedUnits
		t.DroppedBytes = f.droppedBytes
	}
	if s := e.sinks[sinkKey(req, substream)]; s != nil {
		t.DeliveredUnits = s.Received
		t.DeliveredBytes = s.DeliveredBytes
	}
	return t
}

// Throughputs returns a snapshot for every substream this engine has
// touched (source, component or sink), sorted by request then substream.
func (e *Engine) Throughputs() []Throughput {
	seen := make(map[string]Throughput, len(e.flows)+len(e.sinks))
	add := func(req string, substream int) {
		k := sinkKey(req, substream)
		if _, ok := seen[k]; !ok {
			seen[k] = e.Throughput(req, substream)
		}
	}
	for _, s := range e.sources {
		add(s.req, s.substream)
	}
	for _, s := range e.sinks {
		add(s.Req, s.Substream)
	}
	for _, c := range e.comps {
		add(c.msg.Req, c.msg.Substream)
	}
	out := make([]Throughput, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Req != out[j].Req {
			return out[i].Req < out[j].Req
		}
		return out[i].Substream < out[j].Substream
	})
	return out
}

// DataPlaneStatus is the engine's data-plane posture for introspection:
// the effective configuration, per-shard queue depths, open batch state
// and the per-substream throughput snapshots.
type DataPlaneStatus struct {
	Config          DataPlaneConfig `json:"config"`
	ShardQueueLens  []int           `json:"shardQueueLens"`
	OpenBatches     int             `json:"openBatches"`
	OpenBatchUnits  int             `json:"openBatchUnits"`
	DropsQueueFull  int64           `json:"dropsQueueFull"`
	DropsLaxity     int64           `json:"dropsLaxity"`
	DropsUplink     int64           `json:"dropsUplink"`
	DropsDownlink   int64           `json:"dropsDownlink"`
	Throughputs     []Throughput    `json:"throughputs,omitempty"`
	SchedPolicyName string          `json:"schedPolicy"`
}

// DataPlaneStatus snapshots the engine's data plane. Like every engine
// method it must run on the engine's loop.
func (e *Engine) DataPlaneStatus() DataPlaneStatus {
	st := DataPlaneStatus{
		Config:          e.cfg.DataPlane,
		ShardQueueLens:  make([]int, len(e.shards)),
		OpenBatches:     len(e.batches),
		DropsQueueFull:  e.DropsQueueFull,
		DropsLaxity:     e.DropsLaxity,
		DropsUplink:     e.DropsUplink,
		DropsDownlink:   e.DropsDownlink,
		Throughputs:     e.Throughputs(),
		SchedPolicyName: e.shards[0].queue.Name(),
	}
	for i, sh := range e.shards {
		st.ShardQueueLens[i] = sh.queue.Len()
	}
	for _, b := range e.batches {
		st.OpenBatchUnits += len(b.units)
	}
	return st
}
