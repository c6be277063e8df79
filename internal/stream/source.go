package stream

import (
	"time"

	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/trace"
)

// source emits a substream's data units at the requested rate, spreading
// them across the stage-0 component instances according to the composed
// split. A bursty source varies unit sizes (VBR) while keeping the unit
// rate constant.
type source struct {
	req        string
	substream  int
	unitBytes  int
	burstiness float64
	split      *splitter
	seq        int64
	stopped    bool
	flow       *flowCounters
	// credit is the emission the source is owed, in units: it accrues one
	// unit per period of clock time and is spent one unit per emission.
	credit float64
}

// retarget swaps the source's stage-0 split for a re-composed one. The
// emission loop keeps its cadence and sequence numbers — only the
// downstream targets change, which is what makes incremental reallocation
// seamless at the origin.
func (s *source) retarget(outs []outSpec) { s.split = newSplitter(outs) }

// sourceCatchUpTicks bounds the credit one tick may accrue, in nominal
// ticks: a source whose timer fired late emits what it missed, up to one
// whole tick's worth. What a longer stall missed is not emitted at all: a
// burst reaches the first component at one instant, and the units behind
// its head run out of laxity there, so a larger bound buys drops, not
// deliveries.
const sourceCatchUpTicks = 2

// startSource installs and starts a source for one substream of a request
// originated at this engine. The source ticks once per period, or once per
// flush interval when that is longer (a faster tick could only add timer
// events, its units would wait in the batch anyway), and on each tick
// emits the units owed for the clock time elapsed since the previous tick.
// Counting elapsed time rather than ticks holds the requested rate on a
// clock whose timers fire late; on the simulator's clock the two are the
// same number.
func (e *Engine) startSource(req string, substream int, ss spec.Substream, unitBytes int, outs []outSpec) *source {
	s := &source{
		req:        req,
		substream:  substream,
		unitBytes:  unitBytes,
		burstiness: ss.Burstiness,
		split:      newSplitter(outs),
		flow:       e.flowFor(req, substream),
	}
	e.sources[sinkKey(req, substream)] = s
	period := time.Duration(float64(time.Second) / float64(ss.Rate))
	tickEvery := period
	if fi := e.cfg.DataPlane.FlushInterval; tickEvery < fi {
		tickEvery = fi
	}
	key := "source:" + sinkKey(req, substream)
	// Desynchronize sources slightly so simultaneous requests do not beat
	// in lockstep. The first tick is owed one full tick of credit.
	offset := time.Duration(e.rng.Int63n(int64(tickEvery)))
	last := e.clk.Now() + offset - tickEvery
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		now := e.clk.Now()
		elapsed := now - last
		if elapsed > sourceCatchUpTicks*tickEvery {
			elapsed = sourceCatchUpTicks * tickEvery
		}
		last = now
		// Credit is counted in periods, not rate·seconds: period is
		// rounded to whole nanoseconds, and a tick of exactly one period
		// must be worth exactly one unit.
		s.credit += float64(elapsed) / float64(period)
		for ; s.credit >= 1-creditEpsilon; s.credit-- {
			out := s.split.next()
			if out == nil {
				continue
			}
			e.batchUnit(out.To, pendingUnit{
				msg:       e.emitUnit(s, out),
				fromStage: -1,
				key:       key,
				service:   "source",
				isSource:  true,
				flow:      s.flow,
			})
		}
		e.clk.After(tickEvery, tick)
	}
	e.clk.After(offset, tick)
	return s
}

// emitUnit builds and accounts one source emission (size jitter, sequence,
// counters, trace) without sending it.
func (e *Engine) emitUnit(s *source, out *outSpec) dataMsg {
	size := s.unitBytes
	if s.burstiness > 0 {
		f := 1 + s.burstiness*(2*e.rng.Float64()-1)
		size = int(float64(s.unitBytes) * f)
		if size < 1 {
			size = 1
		}
	}
	m := dataMsg{
		Req:       s.req,
		Substream: s.substream,
		Stage:     out.ToStage,
		Seq:       s.seq,
		Created:   e.clk.Now(),
		Size:      size,
	}
	s.seq++
	s.flow.emittedUnits++
	s.flow.emittedBytes += int64(size)
	telEmitted.Inc()
	e.traceEvent(trace.KindEmit, m, -1, "")
	return m
}
