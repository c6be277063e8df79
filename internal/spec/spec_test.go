package spec

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func valid() Request {
	return Request{
		ID:        "r",
		UnitBytes: 1250,
		Substreams: []Substream{
			{Services: []string{"a", "b"}, Rate: 5},
			{Services: []string{"c"}, Rate: 3},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Request){
		"empty ID":      func(r *Request) { r.ID = "" },
		"zero unit":     func(r *Request) { r.UnitBytes = 0 },
		"negative unit": func(r *Request) { r.UnitBytes = -1 },
		"no substreams": func(r *Request) { r.Substreams = nil },
		"empty chain":   func(r *Request) { r.Substreams[0].Services = nil },
		"zero rate":     func(r *Request) { r.Substreams[1].Rate = 0 },
		"negative rate": func(r *Request) { r.Substreams[1].Rate = -4 },
	}
	for name, mutate := range cases {
		r := valid()
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

// The data-unit wire format frames the request ID with a u8 length: the
// longest ID that fits is valid, one byte more is a typed rejection.
func TestValidateRequestIDLength(t *testing.T) {
	r := valid()
	r.ID = strings.Repeat("x", MaxRequestIDBytes)
	if err := r.Validate(); err != nil {
		t.Fatalf("%d-byte ID: %v", len(r.ID), err)
	}
	r.ID += "x"
	if err := r.Validate(); !errors.Is(err, ErrRequestIDTooLong) {
		t.Fatalf("%d-byte ID: err = %v, want ErrRequestIDTooLong", len(r.ID), err)
	}
}

func TestServicesDistinct(t *testing.T) {
	r := valid()
	r.Substreams[1].Services = []string{"a", "c"} // "a" repeats
	got := r.Services()
	if len(got) != 3 {
		t.Fatalf("Services = %v, want 3 distinct", got)
	}
}

func TestTotalRate(t *testing.T) {
	if got := valid().TotalRate(); got != 8 {
		t.Fatalf("TotalRate = %d, want 8", got)
	}
}

func TestBitsPerSecond(t *testing.T) {
	r := valid()
	// 1250 bytes = 10000 bits; 5 units/sec = 50 kbit/s.
	if got := r.BitsPerSecond(5); got != 50000 {
		t.Fatalf("BitsPerSecond = %g", got)
	}
}

func TestServiceDefValidate(t *testing.T) {
	for _, d := range []ServiceDef{
		{Name: "unset"},
		{Name: "unit", RateRatio: 1, BytesRatio: 1},
		{Name: "bound", RateRatio: MaxRateRatio, BytesRatio: 0.001},
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	for _, d := range []ServiceDef{
		{Name: "infinite", RateRatio: math.Inf(1)},
		{Name: "NaN", RateRatio: math.NaN()},
		{Name: "negative", RateRatio: -1},
		{Name: "above bound", RateRatio: 2 * MaxRateRatio},
		{Name: "infinite bytes", RateRatio: 1, BytesRatio: math.Inf(1)},
		{Name: "negative bytes", RateRatio: 1, BytesRatio: -0.5},
	} {
		if err := d.Validate(); !errors.Is(err, ErrInvalidService) {
			t.Errorf("%s: err = %v, want ErrInvalidService", d.Name, err)
		}
	}
}

// TestChainScalesEachStage works a downsample → upsample → shrink → plain
// chain by hand: delivering one unit takes 1/(0.5·2·1·1) = 1 unit into
// stage 0, which emits 0.5 into stage 1, which doubles it back to 1 for
// stages 2 and 3; shrink halves the unit size for everything after it.
// Alone in front of a plain stage, downsample takes two units in per unit
// delivered, so it charges 2.
func TestChainScalesEachStage(t *testing.T) {
	catalog := map[string]ServiceDef{
		"down":   {RateRatio: 0.5, BytesRatio: 1},
		"up":     {RateRatio: 2},
		"shrink": {RateRatio: 1, BytesRatio: 0.5},
	}
	prefix := []Stage{{Ratio: 7}}
	got := Chain(prefix, catalog, []string{"down", "up", "shrink", "plain"}, 1000)
	want := []Stage{
		{Ratio: 7},
		{Ratio: 0.5, Scale: 1, InBytes: 1000, OutBytes: 1000, In: 1, Out: 0.5},
		{Ratio: 2, Scale: 0.5, InBytes: 1000, OutBytes: 1000, In: 0.5, Out: 1},
		{Ratio: 1, Scale: 1, InBytes: 1000, OutBytes: 500, In: 1, Out: 0.5},
		{Ratio: 1, Scale: 1, InBytes: 500, OutBytes: 500, In: 0.5, Out: 0.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Chain:\n got %+v\nwant %+v", got, want)
	}
	if c := Chain(nil, catalog, []string{"down", "plain"}, 1000)[0].Charge(); c != 2 {
		t.Fatalf("downsample charge = %g, want 2", c)
	}
}
