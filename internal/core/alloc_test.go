//go:build !race

// The race detector makes sync.Pool drop items on purpose, so the pooled
// compose scratch would show up as allocations there.

package core

import (
	"fmt"
	"testing"

	"rasc.dev/rasc/internal/monitor"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
)

// composeAllocBudget is the most heap allocations one MinCost.Compose of
// the benchmark's core.compose_us fixture may cost once the scratch pool
// is warm.
const composeAllocBudget = 4

// composeFixture is the benchmark suite's core.compose_us fixture: 16
// candidate hosts per stage, 3 stages, one substream at 20 units/s.
func composeFixture() Input {
	mk := func(i int) overlay.NodeInfo {
		return overlay.NodeInfo{ID: overlay.HashID(fmt.Sprintf("h%d", i)), Addr: "sim://x"}
	}
	chain := []string{"s0", "s1", "s2"}
	in := Input{
		Request:      spec.Request{ID: "probe", UnitBytes: 1250, Substreams: []spec.Substream{{Services: chain, Rate: 20}}},
		Source:       mk(1000),
		Dest:         mk(1001),
		SourceReport: monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		DestReport:   monitor.Report{InBpsCap: 1e8, OutBpsCap: 1e8},
		Candidates:   map[string][]Candidate{},
	}
	var cands []Candidate
	for h := 0; h < 16; h++ {
		cands = append(cands, Candidate{Info: mk(h),
			Report: monitor.Report{InBpsCap: 2e5, OutBpsCap: 2e5, DropRatio: float64(h%5) * 0.01}})
	}
	for _, svc := range chain {
		in.Candidates[svc] = cands
	}
	return in
}

// TestComposeAllocationBudget pins MinCost.Compose's allocations on the
// core.compose_us fixture at steady state.
func TestComposeAllocationBudget(t *testing.T) {
	in, m := composeFixture(), &MinCost{}
	var err error
	allocs := testing.AllocsPerRun(200, func() { _, err = m.Compose(in) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.1f allocations per Compose", allocs)
	if allocs > composeAllocBudget {
		t.Fatalf("%.1f allocations per Compose, budget %d", allocs, composeAllocBudget)
	}
}
