package stream

import (
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/sched"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/transport"
)

// DataPlaneConfig sizes the engine's data-unit path. Every unit travels
// the same way whatever the values: appended to its destination's batch,
// binary-encoded at the flush, decoded and queued on its substream's
// shard. The zero value (equal to BatchUnits 1, Shards 1) is one unit per
// wire message on one simulated CPU per host, which is what the paper's
// experiments model.
type DataPlaneConfig struct {
	// BatchUnits is the maximum number of data units coalesced per
	// destination into one wire message, and the most units a shard
	// processes per timer span. Values ≤ 1 make every batch a batch of
	// one, flushed the moment the unit is appended.
	BatchUnits int
	// FlushInterval bounds how long a unit may sit in an open batch
	// waiting for companions; it is the latency cost of coalescing
	// (default DefaultFlushInterval when BatchUnits > 1). Sources tick
	// no more often than this.
	FlushInterval time.Duration
	// Shards is the number of simulated CPUs. Units are routed to a
	// shard by (request, substream), so one substream keeps its ordering
	// while a busy node processes several substreams at once. Values ≤ 1
	// keep one CPU per host.
	Shards int
}

// Data-plane defaults used by DefaultDataPlane and flag surfaces.
const (
	DefaultBatchUnits    = 32
	DefaultFlushInterval = 2 * time.Millisecond
	DefaultShards        = 4
)

// DefaultDataPlane returns the batched configuration the benchmark
// suite's sim-stream-batched workload runs (bench/).
func DefaultDataPlane() DataPlaneConfig {
	return DataPlaneConfig{
		BatchUnits:    DefaultBatchUnits,
		FlushInterval: DefaultFlushInterval,
		Shards:        DefaultShards,
	}
}

// normalize clamps the config to its effective values.
func (c *DataPlaneConfig) normalize() {
	if c.BatchUnits < 1 {
		c.BatchUnits = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.BatchUnits > 1 && c.FlushInterval <= 0 {
		c.FlushInterval = DefaultFlushInterval
	}
}

// maxBatchSimBytes caps the simulated payload of one batch so a flush
// never serializes for longer than a handful of large units would.
const maxBatchSimBytes = 64 << 10

// ---------------------------------------------------------------------------
// Binary unit codec.
//
// Units travel in the transport's framing style (fixed-width big-endian
// fields, length-prefixed strings), one or many to a payload:
//
//	batch   := count:u16 unit*
//	unit    := reqLen:u8 req substream:u32 stage:u32 seq:u64 created:u64 size:u32
//
// Encoding scratch comes from a pool and the final wire buffer is sized
// exactly, so a flush costs one allocation regardless of batch size.

// unitWireOverhead is the encoded size of a unit minus its request ID.
const unitWireOverhead = 1 + 4 + 4 + 8 + 8 + 4

// appendUnit encodes one unit. Req must fit a u8 length:
// spec.Request.Validate and onInstantiate reject longer IDs before a unit
// can carry one.
func appendUnit(b []byte, m *dataMsg) []byte {
	b = append(b, byte(len(m.Req)))
	b = append(b, m.Req...)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Substream))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Stage))
	b = binary.BigEndian.AppendUint64(b, uint64(m.Seq))
	b = binary.BigEndian.AppendUint64(b, uint64(m.Created))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Size))
	return b
}

// readUnit decodes one unit, returning the remaining buffer. A unit of a
// request found in reqs takes its ID from there, so it decodes without
// allocating, and carries the request's state as m.local.
func readUnit(b []byte, m *dataMsg, reqs map[string]*reqState) ([]byte, bool) {
	if len(b) < 1 {
		return nil, false
	}
	rl := int(b[0])
	b = b[1:]
	if len(b) < rl+unitWireOverhead-1 {
		return nil, false
	}
	if r := reqs[string(b[:rl])]; r != nil {
		m.Req, m.local = r.id, r
	} else {
		m.Req, m.local = string(b[:rl]), nil
	}
	b = b[rl:]
	m.Substream = int(binary.BigEndian.Uint32(b))
	m.Stage = int(binary.BigEndian.Uint32(b[4:]))
	m.Seq = int64(binary.BigEndian.Uint64(b[8:]))
	m.Created = time.Duration(binary.BigEndian.Uint64(b[16:]))
	m.Size = int(binary.BigEndian.Uint32(b[24:]))
	return b[28:], true
}

// appendBatchUnits encodes a batch payload.
func appendBatchUnits(b []byte, units []pendingUnit) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(units)))
	for i := range units {
		b = appendUnit(b, &units[i].msg)
	}
	return b
}

// decodeBatchUnits decodes a batch payload into dst (reused between
// calls), interning request IDs against reqs (see readUnit; may be nil); it
// returns nil on any framing error, bytes left over after the last unit
// included.
func decodeBatchUnits(b []byte, dst []dataMsg, reqs map[string]*reqState) []dataMsg {
	if len(b) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	dst = dst[:0]
	for i := 0; i < n; i++ {
		var m dataMsg
		var ok bool
		b, ok = readUnit(b, &m, reqs)
		if !ok {
			return nil
		}
		dst = append(dst, m)
	}
	if len(b) != 0 {
		return nil
	}
	return dst
}

// encodeScratch pools batch-encode buffers.
var encodeScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// decodeScratch pools batch-decode unit slices.
var decodeScratch = sync.Pool{New: func() any { s := make([]dataMsg, 0, DefaultBatchUnits); return &s }}

// ---------------------------------------------------------------------------
// Pooled scheduler units.
//
// Every queued data unit is a sched.Unit paired with its *unitTask payload.
// Both live in one pool (in the style of mincostflow.Solver's scratch
// arenas) so the steady-state hot path allocates nothing per unit.

var unitPool = sync.Pool{New: func() any {
	return &sched.Unit{Payload: &unitTask{}}
}}

// getUnit leases a unit+task pair from the pool.
func getUnit() (*sched.Unit, *unitTask) {
	u := unitPool.Get().(*sched.Unit)
	return u, u.Payload.(*unitTask)
}

// putUnit returns a unit to the pool, clearing pointers so pooled entries
// do not retain components or payloads.
func putUnit(u *sched.Unit) {
	task := u.Payload.(*unitTask)
	task.comp = nil
	task.msg = dataMsg{}
	*u = sched.Unit{Payload: task}
	unitPool.Put(u)
}

// ---------------------------------------------------------------------------
// Per-destination batches.

// pendingUnit is one unit waiting in an open batch, with everything needed
// to account for its fate at flush time.
type pendingUnit struct {
	msg dataMsg
	// fromStage is the stage the unit was produced at (-1 for sources),
	// used for forward/drop traces.
	fromStage int
	// key and service attribute drops to the producing component
	// ("source:<req>/<substream>" and "source" for source emissions).
	key     string
	service string
	// isSource selects source-style accounting (no forward counters).
	isSource bool
	flow     *flowCounters
}

// unitBatch is an open per-destination batch. Flushed batches go back to
// the engine's spare list with their unit slice, so a steady stream opens
// batches without allocating.
type unitBatch struct {
	to    overlay.NodeInfo
	units []pendingUnit
	// simBytes is the simulated payload total (Σ unit Size), charged on
	// the wire via padding.
	simBytes int
	// seq orders open batches by when they were opened, for flushAll.
	seq    uint64
	cancel func() // pending flush-deadline timer, nil until armed
	// deadline is the flush-deadline timer's callback, built once per
	// batch object. Flushing cancels the timer; a callback the live clock
	// could no longer cancel at worst flushes this object's next batch
	// early.
	deadline func()
}

// engineShard is one execution context: a ready queue plus the busy flag
// and CPU clock of its simulated core.
type engineShard struct {
	queue sched.Policy
	busy  bool
	// free is the modelled end of the shard's last processing span; it
	// runs ahead of the clock while spans complete without a timer.
	free time.Duration
	// runs is drain scratch reused between processing rounds.
	runs []*sched.Unit
	// procs mirrors runs with each unit's jittered processing time.
	procs []time.Duration
	// done ends a processing span (Engine.finish); built once per shard.
	done func()
}

// shardFor routes a unit to its execution context. Substreams are pinned
// to one shard (FNV-1a over request ID and substream) so per-substream
// ordering survives sharding.
func (e *Engine) shardFor(req string, substream int) *engineShard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(req); i++ {
		h ^= uint64(req[i])
		h *= prime64
	}
	h ^= uint64(uint32(substream))
	h *= prime64
	return e.shards[h%uint64(len(e.shards))]
}

// queueLen sums the shards' ready queues for the monitor.
func (e *Engine) queueLen() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.queue.Len()
	}
	return n
}

// ---------------------------------------------------------------------------
// Send path.

// batchUnit appends one unit to the open batch for its destination and
// flushes the batch when it is full. With BatchUnits ≤ 1 every batch is
// full at its first unit, so the unit goes out at once as a batch of one,
// encoded on the stack, and no batch object is ever opened.
func (e *Engine) batchUnit(to overlay.NodeInfo, pu pendingUnit) {
	if e.cfg.DataPlane.BatchUnits <= 1 {
		var buf [2 + unitWireOverhead + 64]byte // grows onto the heap only for a request ID over 64 bytes
		units := [1]pendingUnit{pu}
		e.sendUnits(to.Addr, units[:], pu.msg.Size, "full", buf[:0])
		return
	}
	b := e.batches[to.Addr]
	if b == nil {
		b = e.openBatch(to)
	}
	b.units = append(b.units, pu)
	b.simBytes += pu.msg.Size
	if len(b.units) >= e.cfg.DataPlane.BatchUnits || b.simBytes >= maxBatchSimBytes {
		e.flushDest(to.Addr, "full")
		return
	}
	if b.cancel == nil {
		b.cancel = e.clk.After(e.cfg.DataPlane.FlushInterval, b.deadline)
	}
}

// openBatch opens the batch for a destination, on a spare batch object
// when one is free.
func (e *Engine) openBatch(to overlay.NodeInfo) *unitBatch {
	var b *unitBatch
	if n := len(e.spareBatches); n > 0 {
		b = e.spareBatches[n-1]
		e.spareBatches = e.spareBatches[:n-1]
	} else {
		b = &unitBatch{}
		b.deadline = func() { e.flushDest(b.to.Addr, "deadline") }
	}
	e.batchSeq++
	b.to, b.seq = to, e.batchSeq
	e.batches[to.Addr] = b
	return b
}

// flushDest sends the open batch for addr and returns the batch object to
// the spare list.
func (e *Engine) flushDest(addr transport.Addr, cause string) {
	b := e.batches[addr]
	if b == nil {
		return
	}
	delete(e.batches, addr)
	if b.cancel != nil {
		b.cancel()
	}
	scratch := encodeScratch.Get().(*[]byte)
	*scratch = e.sendUnits(b.to.Addr, b.units, b.simBytes, cause, (*scratch)[:0])
	encodeScratch.Put(scratch)
	clear(b.units) // a spare batch holds no request, flow or peer
	b.units, b.simBytes, b.cancel, b.to = b.units[:0], 0, nil, overlay.NodeInfo{}
	e.spareBatches = append(e.spareBatches, b)
}

// sendUnits encodes units into buf as one batch of simBytes simulated
// bytes, sends it to addr, then settles every unit's accounting according
// to the send outcome. It returns the encode buffer, emptied, for reuse.
func (e *Engine) sendUnits(addr transport.Addr, units []pendingUnit, simBytes int, cause string, buf []byte) []byte {
	payload := appendBatchUnits(buf, units)
	pad := max(simBytes-len(payload), 0)
	err := e.node.DirectDataPadded(addr, appDataBatch, payload, pad)
	if err == nil {
		// Charge the send meter only after the transport accepted the
		// batch: units refused at the uplink never consumed send capacity,
		// and counting them skewed OutBpsUsed upward exactly when the link
		// was congested.
		e.Monitor.ObserveSend(e.clk.Now(), simBytes)
		telBatchFlush(cause)
		telBatchUnits.Observe(float64(len(units)))
	}
	for i := range units {
		e.settleUnit(&units[i], err)
	}
	return payload[:0]
}

// flushAll flushes every open batch, oldest first (used when a request
// stops so no units linger past their flush deadline in tests and teardown
// paths). The order is part of the engine's determinism: flushes draw on
// the shared link model, so ranging over the map directly would make a
// stop that finds two batches open irreproducible.
func (e *Engine) flushAll() {
	if len(e.batches) == 0 {
		return
	}
	open := make([]*unitBatch, 0, len(e.batches))
	for _, b := range e.batches {
		open = append(open, b)
	}
	sort.Slice(open, func(i, j int) bool { return open[i].seq < open[j].seq })
	for _, b := range open {
		e.flushDest(b.to.Addr, "stop")
	}
}

// settleUnit applies the per-unit send accounting for a unit whose
// transmission outcome is err.
func (e *Engine) settleUnit(pu *pendingUnit, err error) {
	if err != nil {
		if pu.flow != nil {
			pu.flow.droppedUnits++
			pu.flow.droppedBytes += int64(pu.msg.Size)
		}
		if pu.isSource {
			// The origin's own uplink is congested: record the drop so
			// the node's ratio reflects it.
			e.Monitor.ObserveDrop(pu.key, pu.service)
			return
		}
		// Uplink congestion: the unit is dropped here, and the drop
		// feeds the component's ratio — the congestion feedback RASC's
		// composition relies on.
		e.DropsUplink++
		telDropUplink.Inc()
		e.traceEvent(trace.KindDrop, pu.msg, pu.fromStage, "uplink")
		e.Monitor.ObserveDrop(pu.key, pu.service)
		return
	}
	if !pu.isSource {
		telForwarded.Inc()
		e.traceEvent(trace.KindForward, pu.msg, pu.fromStage, "")
		if pu.flow != nil {
			pu.flow.forwardedUnits++
			pu.flow.forwardedBytes += int64(pu.msg.Size)
		}
	}
}

// onDataBatch receives a binary batch and hands each unit to handleUnit.
func (e *Engine) onDataBatch(_ overlay.ID, _ overlay.NodeInfo, body []byte) {
	scratch := decodeScratch.Get().(*[]dataMsg)
	units := decodeBatchUnits(body, *scratch, e.reqs)
	for i := range units {
		e.handleUnit(units[i], false)
	}
	*scratch = units[:0]
	decodeScratch.Put(scratch)
}

// onDataBatchDropped accounts a batch lost at this node's downlink
// (receive-buffer overflow): every unit inside is charged to the component
// or sink it was addressed to.
func (e *Engine) onDataBatchDropped(_ overlay.ID, _ overlay.NodeInfo, body []byte) {
	scratch := decodeScratch.Get().(*[]dataMsg)
	units := decodeBatchUnits(body, *scratch, e.reqs)
	for i := range units {
		e.dropArrival(units[i])
	}
	*scratch = units[:0]
	decodeScratch.Put(scratch)
}
