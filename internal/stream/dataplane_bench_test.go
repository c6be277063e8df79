package stream

import (
	"testing"
	"time"
)

func benchUnits(n int) []pendingUnit {
	units := make([]pendingUnit, n)
	for i := range units {
		units[i] = pendingUnit{msg: dataMsg{
			Req:       "bench-app",
			Substream: i % 4,
			Stage:     1,
			Seq:       int64(i),
			Created:   time.Duration(i) * time.Millisecond,
			Size:      1250,
		}}
	}
	return units
}

// BenchmarkBatchEncode measures the binary codec (32 units per op).
func BenchmarkBatchEncode(b *testing.B) {
	units := benchUnits(32)
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendBatchUnits(buf[:0], units)
	}
}

// BenchmarkBatchDecode measures the receive side on reused scratch, as the
// engine decodes.
func BenchmarkBatchDecode(b *testing.B) {
	units := benchUnits(32)
	payload := appendBatchUnits(nil, units)
	scratch := make([]dataMsg, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scratch = decodeBatchUnits(payload, scratch[:0], nil); scratch == nil {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkUnitPool pins the engine free list's allocation-free steady
// state (get, touch, put).
func BenchmarkUnitPool(b *testing.B) {
	e := newStubEngine(&testClock{}, &stubEndpoint{addr: "stub"}, DataPlaneConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, task := e.getUnit()
		task.msg.Seq = int64(i)
		e.putUnit(u)
	}
}
