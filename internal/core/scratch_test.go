package core

import (
	"math/rand"
	"reflect"
	"sync"
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

// TestComposeConcurrentMatchesSerial composes from several goroutines at
// once: each call must get a scratch of its own (the warm one or a pooled
// one) and produce the graph a serial compose does.
func TestComposeConcurrentMatchesSerial(t *testing.T) {
	inputs := make([]Input, 8)
	want := make([]*ExecutionGraph, len(inputs))
	for i := range inputs {
		inputs[i] = wideInput(4+i, 5+i, "filter", "transcode", "encrypt")
		g, err := (&MinCost{}).Compose(inputs[i])
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		want[i] = g
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &MinCost{}
			for n := 0; n < 50; n++ {
				i := n % len(inputs)
				g, err := m.Compose(inputs[i])
				if err != nil {
					t.Errorf("input %d: %v", i, err)
					return
				}
				if !reflect.DeepEqual(g, want[i]) {
					t.Errorf("input %d: concurrent compose diverged from the serial one", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
