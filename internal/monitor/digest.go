package monitor

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

// DigestSize is the encoded size of a stats digest: the availability
// vector a composer reads for one candidate host, and nothing that grows
// with what the host runs.
//
//	digest := at:i64 inBpsCap:f64 outBpsCap:f64 inBpsUsed:f64 outBpsUsed:f64
//	          dropRatio:f64 queueLen:i64 speedFactor:f64 cpuFraction:f64
//
// Every field is 8 bytes, big-endian; floats are IEEE 754 bit patterns.
const DigestSize = 9 * 8

// ErrBadDigest reports bytes that are not a stats digest: the wrong
// length, or a field no monitor produces (a non-finite float, a negative
// clock or queue length).
var ErrBadDigest = errors.New("monitor: malformed stats digest")

// AppendDigest encodes the fields of r a composer reads. Components is
// never carried.
func AppendDigest(b []byte, r Report) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(r.At))
	for _, f := range [...]float64{r.InBpsCap, r.OutBpsCap, r.InBpsUsed, r.OutBpsUsed, r.DropRatio} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.BigEndian.AppendUint64(b, uint64(r.QueueLen))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.SpeedFactor))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(r.CPUFraction))
}

// ParseDigest decodes a stats digest.
func ParseDigest(b []byte) (Report, error) {
	if len(b) != DigestSize {
		return Report{}, ErrBadDigest
	}
	bad := false
	word := func(i int) uint64 { return binary.BigEndian.Uint64(b[8*i:]) }
	float := func(i int) float64 {
		f := math.Float64frombits(word(i))
		bad = bad || math.IsNaN(f) || math.IsInf(f, 0)
		return f
	}
	at, queue := int64(word(0)), int64(word(6))
	r := Report{
		At:          time.Duration(at),
		InBpsCap:    float(1),
		OutBpsCap:   float(2),
		InBpsUsed:   float(3),
		OutBpsUsed:  float(4),
		DropRatio:   float(5),
		QueueLen:    int(queue),
		SpeedFactor: float(7),
		CPUFraction: float(8),
	}
	if bad || at < 0 || queue < 0 || queue > math.MaxInt32 {
		return Report{}, ErrBadDigest
	}
	return r, nil
}
