package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// wideInput builds a wide input: `hosts` candidates per stage with varied
// drop ratios and capacities.
func wideInput(hosts, rate int, chain ...string) Input {
	in := baseInput(req1(rate, chain...))
	rng := rand.New(rand.NewSource(99))
	var cands []Candidate
	for h := 0; h < hosts; h++ {
		cands = append(cands, cand(h, float64(40+rng.Intn(200))*kbit, float64(h%7)*0.01))
	}
	for _, svc := range chain {
		in.Candidates[svc] = cands
	}
	return in
}

// TestComposeScratchReuseDeterministic hammers one MinCost through many
// back-to-back compositions of differently-shaped requests and checks
// each against a cold composer — the pooled scratch must never leak state
// between calls.
func TestComposeScratchReuseDeterministic(t *testing.T) {
	shapes := [][]string{
		{"filter"},
		{"filter", "transcode"},
		{"filter", "transcode", "encrypt"},
		{"transcode"},
	}
	m := &MinCost{}
	for i := 0; i < 40; i++ {
		chain := shapes[i%len(shapes)]
		in := wideInput(3+i%9, 5+i%6, chain...)
		got, err := m.Compose(in)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		want, err := (&MinCost{}).Compose(in)
		if err != nil {
			t.Fatalf("iter %d cold: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (%v): warm scratch diverged from cold compose", i, chain)
		}
	}
}
