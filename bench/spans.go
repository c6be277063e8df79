package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Start and End are
// host nanoseconds since the recorder was created; VStart and VEnd are the
// simulator's clock at the same two instants (zero on live workloads).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // one identifier per request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	VStart int64  `json:"vstart_ns,omitempty"`
	VEnd   int64  `json:"vend_ns,omitempty"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, which is how the untraced run stays untraced. Spans nest
// by call order: begin pushes, end pops, so a span's parent is whatever was
// open when it began. Spans that outlive their caller (a Submit whose
// callback fires many events later) are added whole with add.
type recorder struct {
	t0    time.Time
	vnow  func() time.Duration
	spans []span
	stack []int
}

func newRecorder(vnow func() time.Duration) *recorder {
	if vnow == nil {
		vnow = func() time.Duration { return 0 }
	}
	return &recorder{t0: time.Now(), vnow: vnow}
}

func (r *recorder) begin(name, req string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(r.t0)), VStart: int64(r.vnow())})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.End, s.VEnd = int64(time.Since(r.t0)), int64(r.vnow())
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == id {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
}

// mark returns the recorder's host clock, for spans assembled after the
// fact with add.
func (r *recorder) mark() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// add records a completed span under the given parent.
func (r *recorder) add(parent int, name, req string, start, end, vstart, vend int64) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start, End: end, VStart: vstart, VEnd: vend})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [start, end].
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
