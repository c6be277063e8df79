package main

import (
	"encoding/json"
	"strconv"
	"time"
)

// yardstick is a fixed piece of work owned by the benchmark (heap churn,
// map updates, small allocations and JSON encoding: the instruction mix of
// the simulator's hot path, none of the program's code). Its duration says
// how fast this host is running right now, and the simulator workloads
// divide it out of their host-clock end-to-end metrics.
//
// Why: the reference box is a shared VM whose speed shifts by tens of
// percent for minutes at a time. Two sets of ten raw runs on the same ten
// seeds, twenty minutes apart, read 25.8k and 17.5k units/s on sim-stream
// (-32 %; -34 % and -30 % on sim-stream-batched and sim-compose; set-up
// +48 %), with the ten runs of the slow set spread over 0.26-0.28 of their
// median. The benchmark contract refuses any metric whose spread or whose
// shift between two such sets exceeds its bound, and no bound may exceed
// 0.25. The shift is slower than a run, so longer or more segments do not
// average it out: the spread of ten runs' medians was the same over the
// first quarter, the first half and the whole of each run.
//
// Why this mix: over a 150 s run the raw segment time drifted by 21 %
// between two quiet stretches. Scaled by this yardstick the two stretches
// agreed within 0.3 %; scaled by an allocation-free heap-and-table loop
// or by a pointer chase over 32 MB they still differed by 10 % and 16 %.
// What slows the host slows allocating, pointer-heavy code most, and that
// is what the simulator is.
//
// What it costs: the scaled metrics are in seconds of the reference host,
// not wall seconds (their names do not say wall; every run also prints the
// raw figures and the speed it saw), and they move with the yardstick's own
// cost, so both sides of a comparison must be built with one toolchain.
type yardstick struct {
	heap  []yardItem
	index map[string]int
	keys  []string
	sink  int
}

type yardItem struct {
	At   int64  `json:"at"`
	Seq  uint64 `json:"seq"`
	Node string `json:"node"`
}

func newYardstick() *yardstick {
	y := &yardstick{index: make(map[string]int)}
	for i := 0; i < 64; i++ {
		y.keys = append(y.keys, "sim://"+strconv.Itoa(i)+"/req/0")
	}
	y.run() // grow the heap and the map once, outside any measurement
	return y
}

// yardstickRef is how long the yardstick takes on the quiet reference box.
// It only fixes the unit: any constant gives the same comparisons.
const yardstickRef = time.Millisecond

// hostSpeed is the host's speed over a stretch of work bracketed by two
// yardstick measurements: 1 on the quiet reference box, 0.5 when everything takes
// twice as long. Host seconds × speed = seconds of the reference host.
func hostSpeed(before, after time.Duration) float64 {
	return float64(2*yardstickRef) / float64(before+after)
}

// measure is the median of three runs: one run is a millisecond, short
// enough for a collection of the simulator's garbage to double it. On
// sim-contended, whose 14-16 segments a run leave the median little to
// average over, bracketing segments with single runs spread ten seeds'
// units/s over 0.20 of their median on a steady host; with three, 0.15,
// which is what the raw clock gave.
func (y *yardstick) measure() time.Duration {
	d := []float64{float64(y.run()), float64(y.run()), float64(y.run())}
	return time.Duration(median(d))
}

// run does the fixed work once and returns how long it took.
func (y *yardstick) run() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it := yardItem{At: int64(x % 1000003), Seq: uint64(i), Node: y.keys[x%64]}
		// sift up
		y.heap = append(y.heap, it)
		for c := len(y.heap) - 1; c > 0; {
			p := (c - 1) / 2
			if y.heap[p].At <= y.heap[c].At {
				break
			}
			y.heap[p], y.heap[c] = y.heap[c], y.heap[p]
			c = p
		}
		y.index[it.Node]++
		if i%4 == 3 {
			b, _ := json.Marshal(&it) // plain data: cannot fail
			y.sink += len(b)
		}
	}
	for len(y.heap) > 0 { // pop everything: sift down
		n := len(y.heap) - 1
		y.heap[0] = y.heap[n]
		y.heap = y.heap[:n]
		for p := 0; ; {
			c := 2*p + 1
			if c >= n {
				break
			}
			if c+1 < n && y.heap[c+1].At < y.heap[c].At {
				c++
			}
			if y.heap[p].At <= y.heap[c].At {
				break
			}
			y.heap[p], y.heap[c] = y.heap[c], y.heap[p]
			p = c
		}
	}
	return time.Since(t0)
}
