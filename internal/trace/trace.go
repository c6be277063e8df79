// Package trace records the life of data units as structured events — a
// unit is emitted by a source, arrives at a component, is processed or
// dropped, is forwarded, and is finally delivered at the sink — and
// reconstructs per-unit timelines and per-stage latency breakdowns from
// them. It exists for debugging and for the per-hop analysis behind the
// delay figures.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds, in the rough order of a unit's life.
const (
	KindEmit Kind = iota + 1
	KindArrive
	KindProcess
	KindForward
	KindDrop
	KindDeliver
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindEmit:
		return "emit"
	case KindArrive:
		return "arrive"
	case KindProcess:
		return "process"
	case KindForward:
		return "forward"
	case KindDrop:
		return "drop"
	case KindDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Event is one recorded occurrence.
type Event struct {
	At        time.Duration
	Kind      Kind
	Node      string // the node where the event happened
	Req       string
	Substream int
	Stage     int // -1 source, len(chain) sink
	Seq       int64
	Note      string // cause for drops, service name for arrivals (plus " early" when replayed) and processing
}

// Buffer is a bounded ring of events. A zero Buffer is unusable; create
// one with NewBuffer. Buffer is safe for concurrent appenders and readers:
// simulations append from the single event-loop goroutine, but live nodes
// and tests may append from many goroutines at once.
type Buffer struct {
	mu      sync.Mutex
	events  []Event
	head    int
	n       int
	total   int64
	evicted int64
}

// NewBuffer creates a buffer retaining the most recent capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{events: make([]Event, capacity)}
}

// Append records an event, evicting the oldest when full.
func (b *Buffer) Append(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == len(b.events) {
		b.evicted++
		telEvicted.Inc()
	}
	b.events[b.head] = e
	b.head = (b.head + 1) % len(b.events)
	if b.n < len(b.events) {
		b.n++
	}
	b.total++
}

// Len returns the number of retained events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Total returns the number of events ever appended.
func (b *Buffer) Total() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Evicted returns how many events the ring has overwritten; non-zero
// means timelines reconstructed from the buffer may be truncated.
func (b *Buffer) Evicted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evicted
}

// Events returns the retained events oldest-first.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, b.n)
	start := (b.head - b.n + len(b.events)) % len(b.events)
	for i := 0; i < b.n; i++ {
		out = append(out, b.events[(start+i)%len(b.events)])
	}
	return out
}

// Timeline returns the events of one data unit in time order.
func (b *Buffer) Timeline(req string, substream int, seq int64) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Req == req && e.Substream == substream && e.Seq == seq {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// FormatTimeline renders a unit's timeline as readable text.
func FormatTimeline(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		fmt.Fprintf(&sb, "%12v %-8s stage %2d on %-12s", e.At, e.Kind, e.Stage, e.Node)
		if e.Note != "" {
			fmt.Fprintf(&sb, " (%s)", e.Note)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// StageLatency summarizes one hop of a substream's pipeline.
type StageLatency struct {
	Stage int
	// Count is the number of units measured across this hop.
	Count int
	// Mean is the average time from the previous stage's forward (or
	// the source emit) to this stage's arrival-or-delivery.
	Mean time.Duration
}

// StageLatencies computes per-hop mean latencies for a substream from the
// retained events: hop k covers leaving stage k-1 (emit/forward) until
// arriving at stage k (arrive/deliver).
func (b *Buffer) StageLatencies(req string, substream int) []StageLatency {
	type leaveKey struct {
		stage int
		seq   int64
	}
	leaves := make(map[leaveKey]time.Duration)
	sums := make(map[int]time.Duration)
	counts := make(map[int]int)
	for _, e := range b.Events() {
		if e.Req != req || e.Substream != substream {
			continue
		}
		switch e.Kind {
		case KindEmit:
			leaves[leaveKey{-1, e.Seq}] = e.At
		case KindForward:
			leaves[leaveKey{e.Stage, e.Seq}] = e.At
		case KindArrive, KindDeliver:
			if left, ok := leaves[leaveKey{e.Stage - 1, e.Seq}]; ok {
				sums[e.Stage] += e.At - left
				counts[e.Stage]++
			}
		}
	}
	var stages []int
	for s := range counts {
		stages = append(stages, s)
	}
	sort.Ints(stages)
	out := make([]StageLatency, 0, len(stages))
	for _, s := range stages {
		out = append(out, StageLatency{Stage: s, Count: counts[s], Mean: sums[s] / time.Duration(counts[s])})
	}
	return out
}

// DropsByCause counts drop events per note.
func (b *Buffer) DropsByCause() map[string]int {
	out := make(map[string]int)
	for _, e := range b.Events() {
		if e.Kind == KindDrop {
			out[e.Note]++
		}
	}
	return out
}
