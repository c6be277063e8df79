// Package stream is the data-plane runtime of RASC: component instances
// hosted on overlay nodes receive data units, queue them under the laxity
// scheduler, simulate the service's processing cost, and forward the
// results downstream — splitting the stream across multiple instances of
// the same service according to the composed rates. Sources emit units at
// the requested rate; sinks measure delivery (delay, jitter, ordering,
// timeliness), producing the metrics of §4.2.
package stream

import (
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
)

// Application names on the overlay.
const (
	// appDataBatch carries every data unit, binary-coded in batches of one
	// or more (see dataplane.go); the format does not depend on the
	// DataPlane config, so nodes with different configs interoperate.
	appDataBatch   = "stream-data-batch"
	appInstantiate = "stream-instantiate"
	appTeardown    = "stream-teardown"
	appStats       = "stats"
)

// outSpec tells a component (or source) where to forward output and at
// what rate share.
type outSpec struct {
	To      overlay.NodeInfo `json:"to"`
	ToStage int              `json:"toStage"`
	Rate    float64          `json:"rate"`
}

// instantiateMsg asks a host to create one component instance.
type instantiateMsg struct {
	Req       string        `json:"req"`
	Substream int           `json:"sub"`
	Stage     int           `json:"stage"`
	Service   string        `json:"service"`
	Rate      float64       `json:"rate"`      // assigned input rate, units/sec
	UnitBytes int           `json:"unitBytes"` // input unit size at this stage
	ProcHint  time.Duration `json:"procHint"`  // reference per-unit cost
	RateRatio float64       `json:"rateRatio"`
	BytesOut  int           `json:"bytesOut"` // output unit size
	Outs      []outSpec     `json:"outs"`
}

// teardownMsg removes all components of a request from a host.
type teardownMsg struct {
	Req string `json:"req"`
}

// dataMsg is one data unit; dataplane.go has its wire encoding. Its
// simulated size is carried via transport padding; Size records it for the
// receiver's accounting.
type dataMsg struct {
	Req       string
	Substream int
	Stage     int // stage this unit is addressed to; len(chain) = sink
	Seq       int64
	Created   time.Duration // source emission time (virtual clock)
	Size      int
}

// componentKey identifies a component instance within an engine.
func componentKey(req string, substream, stage int) string {
	return req + "/" + itoa(substream) + "/" + itoa(stage)
}

// itoa avoids pulling strconv into the hot path signature; small ints only.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// graphOuts extracts, for every placement in an execution graph, the
// downstream targets with their rate shares; and the source's stage-0
// targets per substream.
func graphOuts(g *core.ExecutionGraph) (byPlacement map[string][]outSpec, sourceOuts map[int][]outSpec) {
	byPlacement = make(map[string][]outSpec)
	sourceOuts = make(map[int][]outSpec)
	for _, e := range g.Edges {
		o := outSpec{To: e.To, ToStage: e.ToStage, Rate: e.Rate}
		if e.FromStage == -1 {
			sourceOuts[e.Substream] = append(sourceOuts[e.Substream], o)
			continue
		}
		key := componentKey(g.Request.ID, e.Substream, e.FromStage) + "@" + e.From.ID.String()
		byPlacement[key] = append(byPlacement[key], o)
	}
	return byPlacement, sourceOuts
}
