// Package stream is the data-plane runtime of RASC: component instances
// hosted on overlay nodes receive data units, queue them under the laxity
// scheduler, simulate the service's processing cost, and forward the
// results downstream — splitting the stream across multiple instances of
// the same service according to the composed rates. Sources emit units at
// the requested rate; sinks measure delivery (delay, jitter, ordering,
// timeliness), producing the metrics of §4.2.
package stream

import (
	"encoding/binary"
	"math"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
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
	To      overlay.NodeInfo
	ToStage int
	Rate    float64
}

// instantiateMsg asks a host to create one component instance.
type instantiateMsg struct {
	Req       string
	Substream int
	Stage     int
	Service   string
	Rate      float64       // assigned input rate, units/sec
	UnitBytes int           // input unit size at this stage
	ProcHint  time.Duration // reference per-unit cost
	RateRatio float64
	BytesOut  int // output unit size
	Outs      []outSpec
}

// The instantiate and teardown RPC bodies, in the unit codec's style
// (dataplane.go):
//
//	instantiate := reqLen:u8 req substream:u32 stage:u32 serviceLen:u8 service
//	               rate:f64 unitBytes:u32 procHint:u64 rateRatio:f64 bytesOut:u32
//	               outCount:u32 out*
//	out         := nodeinfo toStage:u32 rate:f64
//	teardown    := reqLen:u8 req
//
// nodeinfo is overlay.AppendNodeInfo's.

// outWireOverhead is the least an encoded out can occupy.
const outWireOverhead = overlay.NodeInfoOverhead + 4 + 8

// appendRequestID encodes a request ID behind its u8 length, refusing one
// the prefix (and so the unit codec) cannot hold.
func appendRequestID(b []byte, req string) ([]byte, error) {
	if len(req) > spec.MaxRequestIDBytes {
		return nil, spec.ErrRequestIDTooLong
	}
	b = append(b, byte(len(req)))
	return append(b, req...), nil
}

// readString reads a u8-length-prefixed string from the front of b.
func readString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 1 || len(b) < 1+int(b[0]) {
		return "", nil, false
	}
	n := 1 + int(b[0])
	return string(b[1:n]), b[n:], true
}

// appendInstantiate encodes m, refusing a request ID, service name or
// target reference that does not fit its u8 length prefix.
func appendInstantiate(b []byte, m instantiateMsg) ([]byte, error) {
	b, err := appendRequestID(b, m.Req)
	if err != nil {
		return nil, err
	}
	if len(m.Service) > 255 {
		return nil, overlay.ErrDataNameTooLong
	}
	b = binary.BigEndian.AppendUint32(b, uint32(m.Substream))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Stage))
	b = append(b, byte(len(m.Service)))
	b = append(b, m.Service...)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Rate))
	b = binary.BigEndian.AppendUint32(b, uint32(m.UnitBytes))
	b = binary.BigEndian.AppendUint64(b, uint64(m.ProcHint))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.RateRatio))
	b = binary.BigEndian.AppendUint32(b, uint32(m.BytesOut))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Outs)))
	for _, o := range m.Outs {
		if b, err = overlay.AppendNodeInfo(b, o.To); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint32(b, uint32(o.ToStage))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(o.Rate))
	}
	return b, nil
}

// parseInstantiate decodes an instantiate body. It rejects length prefixes
// that run past the end and trailing bytes, checks the out count against
// the bytes that remain before allocating for it, and rejects rates a
// component cannot run with: a rate or rate ratio that is not finite and
// positive, a ratio above spec.MaxRateRatio, or an out rate that is not
// finite and non-negative.
func parseInstantiate(b []byte) (m instantiateMsg, ok bool) {
	if m.Req, b, ok = readString(b); !ok || len(b) < 8 {
		return instantiateMsg{}, false
	}
	m.Substream = int(binary.BigEndian.Uint32(b))
	m.Stage = int(binary.BigEndian.Uint32(b[4:]))
	if m.Service, b, ok = readString(b[8:]); !ok || len(b) < 36 {
		return instantiateMsg{}, false
	}
	m.Rate = math.Float64frombits(binary.BigEndian.Uint64(b))
	m.UnitBytes = int(binary.BigEndian.Uint32(b[8:]))
	m.ProcHint = time.Duration(binary.BigEndian.Uint64(b[12:]))
	m.RateRatio = math.Float64frombits(binary.BigEndian.Uint64(b[20:]))
	m.BytesOut = int(binary.BigEndian.Uint32(b[28:]))
	if !(m.Rate > 0 && m.Rate <= math.MaxFloat64) || !spec.ValidRateRatio(m.RateRatio) {
		return instantiateMsg{}, false
	}
	count := binary.BigEndian.Uint32(b[32:])
	b = b[36:]
	if uint64(count)*outWireOverhead > uint64(len(b)) {
		return instantiateMsg{}, false
	}
	if count > 0 {
		m.Outs = make([]outSpec, count)
	}
	for i := range m.Outs {
		o := &m.Outs[i]
		if o.To, b, ok = overlay.ParseNodeInfo(b); !ok || len(b) < 12 {
			return instantiateMsg{}, false
		}
		o.ToStage = int(binary.BigEndian.Uint32(b))
		o.Rate = math.Float64frombits(binary.BigEndian.Uint64(b[4:]))
		if !(o.Rate >= 0 && o.Rate <= math.MaxFloat64) {
			return instantiateMsg{}, false
		}
		b = b[12:]
	}
	return m, len(b) == 0
}

// parseTeardown decodes a teardown body (appendRequestID's encoding): the
// request whose components the host removes.
func parseTeardown(b []byte) (req string, ok bool) {
	req, rest, ok := readString(b)
	return req, ok && len(rest) == 0
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
	// local is Req's state on the engine that decoded the unit, when that
	// engine knew the request then (readUnit); it is not on the wire.
	local *reqState
}

// flowKey names a request substream: the key of the engine's per-flow
// tables, so a lookup builds no string.
type flowKey struct {
	req       string
	substream int
}

// componentKey names a component instance in the node monitor and in
// execution-graph placement lookups.
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

// placementKey names one component instance of an execution graph.
type placementKey struct {
	substream, stage int
	host             overlay.ID
}

// graphPlan is what instantiating an execution graph draws on, built once
// per graph: every placement's downstream targets with their rate shares,
// the source's stage-0 targets per substream, and every substream's
// stages (spec.Chain).
type graphPlan struct {
	outs       map[placementKey][]outSpec
	sourceOuts map[int][]outSpec
	chains     [][]spec.Stage
}

// planGraph builds the plan of g.
func planGraph(g *core.ExecutionGraph, catalog map[string]spec.ServiceDef) graphPlan {
	p := graphPlan{
		outs:       make(map[placementKey][]outSpec, len(g.Placements)),
		sourceOuts: make(map[int][]outSpec, len(g.Request.Substreams)),
		chains:     make([][]spec.Stage, len(g.Request.Substreams)),
	}
	for _, e := range g.Edges {
		o := outSpec{To: e.To, ToStage: e.ToStage, Rate: e.Rate}
		if e.FromStage == -1 {
			p.sourceOuts[e.Substream] = append(p.sourceOuts[e.Substream], o)
			continue
		}
		key := placementKey{e.Substream, e.FromStage, e.From.ID}
		p.outs[key] = append(p.outs[key], o)
	}
	for l, ss := range g.Request.Substreams {
		p.chains[l] = spec.Chain(nil, catalog, ss.Services, g.Request.UnitBytes)
	}
	return p
}
