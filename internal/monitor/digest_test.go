package monitor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"
)

// fullReport populates every field the digest carries with a distinct
// value, plus the Components map it must not carry.
func fullReport() Report {
	return Report{
		At: 1234567 * time.Microsecond, InBpsCap: 1.2e6, OutBpsCap: 1.5e5,
		InBpsUsed: 3.25e5, OutBpsUsed: 7.5e4, DropRatio: 0.125, QueueLen: 17,
		SpeedFactor: 0.75, CPUFraction: 0.4375,
		Components: map[string]ComponentStats{"r/0/0": {Service: "filter", Arrived: 9}},
	}
}

func TestDigestRoundTripsEveryComposerField(t *testing.T) {
	in := fullReport()
	b := AppendDigest(nil, in)
	if len(b) != DigestSize || DigestSize != 72 {
		t.Fatalf("digest is %d bytes (DigestSize %d), want 72", len(b), DigestSize)
	}
	out, err := ParseDigest(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Components != nil {
		t.Fatalf("digest carried Components: %v", out.Components)
	}
	in.Components = nil
	if out.At != in.At || out.InBpsCap != in.InBpsCap || out.OutBpsCap != in.OutBpsCap ||
		out.InBpsUsed != in.InBpsUsed || out.OutBpsUsed != in.OutBpsUsed || out.DropRatio != in.DropRatio ||
		out.QueueLen != in.QueueLen || out.SpeedFactor != in.SpeedFactor || out.CPUFraction != in.CPUFraction {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", out, in)
	}
	// The derived availability vector is what composers actually read.
	if out.AvailIn() != in.AvailIn() || out.AvailOut() != in.AvailOut() || out.AvailCPU() != in.AvailCPU() {
		t.Fatal("availability vector differs after the round trip")
	}
}

// The digest's size does not depend on how many components the host runs.
func TestDigestSizeIndependentOfComponents(t *testing.T) {
	m := NewNodeMonitor(1e6, 1e6, 8)
	empty := len(AppendDigest(nil, m.Report(0)))
	for i := 0; i < 100; i++ {
		m.ObserveArrival(string(rune('a'+i%26))+"/0/"+string(rune('0'+i/26)), "filter", time.Duration(i)*time.Millisecond, 100)
	}
	if full := len(AppendDigest(nil, m.Report(time.Second))); full != empty {
		t.Fatalf("digest grew from %d to %d bytes with 100 components", empty, full)
	}
}

func TestParseDigestRejectsMalformed(t *testing.T) {
	good := AppendDigest(nil, fullReport())
	set := func(word int, v uint64) []byte {
		b := append([]byte(nil), good...)
		binary.BigEndian.PutUint64(b[8*word:], v)
		return b
	}
	cases := map[string][]byte{
		"empty":          nil,
		"truncated":      good[:DigestSize-1],
		"oversized":      append(append([]byte(nil), good...), 0),
		"json":           []byte(`{"at":1,"inBpsCap":1e6}`),
		"NaN capacity":   set(1, math.Float64bits(math.NaN())),
		"+Inf used":      set(4, math.Float64bits(math.Inf(1))),
		"-Inf cpu":       set(8, math.Float64bits(math.Inf(-1))),
		"negative clock": set(0, 1<<63),
		"negative queue": set(6, ^uint64(0)),
		"huge queue":     set(6, 1<<40),
	}
	for name, b := range cases {
		if _, err := ParseDigest(b); !errors.Is(err, ErrBadDigest) {
			t.Errorf("%s: err = %v, want ErrBadDigest", name, err)
		}
	}
}

// FuzzParseDigest feeds arbitrary bytes to the decoder that takes every
// stats reply off the network: it must never panic, must reject anything
// that is not exactly one digest of finite values, and whatever it accepts
// must re-encode to exactly the input.
func FuzzParseDigest(f *testing.F) {
	good := AppendDigest(nil, fullReport())
	f.Add(good)
	f.Add(good[:40])
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, DigestSize))
	f.Add(make([]byte, DigestSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := ParseDigest(b)
		if err != nil {
			if !errors.Is(err, ErrBadDigest) || r.InBpsCap != 0 || r.OutBpsCap != 0 {
				t.Fatalf("rejection returned %+v, %v", r, err)
			}
			return
		}
		if len(b) != DigestSize {
			t.Fatalf("accepted %d bytes", len(b))
		}
		for _, v := range []float64{r.InBpsCap, r.OutBpsCap, r.InBpsUsed, r.OutBpsUsed, r.DropRatio, r.SpeedFactor, r.CPUFraction} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a non-finite field: %+v", r)
			}
		}
		if back := AppendDigest(nil, r); !bytes.Equal(back, b) {
			t.Fatalf("accepted digest does not re-encode to its input:\n in %x\nout %x", b, back)
		}
	})
}
