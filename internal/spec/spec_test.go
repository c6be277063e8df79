package spec

import (
	"errors"
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
