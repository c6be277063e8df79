package stream_test

import (
	"fmt"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/deploy"
)

// statsReplyBytes asks node `to` for its stats from node 0 and returns the
// reply's length.
func statsReplyBytes(t *testing.T, s *deploy.System, to int) int {
	t.Helper()
	n, done := -1, false
	s.Nodes[0].Request(s.Nodes[to].Addr(), "stats", nil, rpcTimeout, func(body []byte, err error) {
		if err != nil {
			t.Errorf("stats request to node %d: %v", to, err)
		}
		n, done = len(body), true
	})
	runUntilDone(t, s, &done)
	return n
}

// Regression for the monitor that never forgot a component: fifty submit →
// stream → teardown → drain cycles on one deployment leave every engine's
// monitor with exactly the component rows it had before the first submit,
// and the stats reply a composer pulls is the same size on the last cycle
// as before the first. (Each row used to stay forever, sinks and sources
// included, so a host's reply grew with every request it had ever served.)
func TestTeardownForgetsMonitorRows(t *testing.T) {
	s := deploy.NewSystem(deploy.SystemOptions{Nodes: 12, Seed: 3})
	rows := func() []int {
		out := make([]int, len(s.Engines))
		for i, e := range s.Engines {
			out[i] = len(e.Monitor.Report(s.Sim.Now()).Components)
		}
		return out
	}
	before := rows()
	replyBefore := make([]int, len(s.Engines))
	for i := 1; i < len(s.Engines); i++ {
		replyBefore[i] = statsReplyBytes(t, s, i)
	}
	for cycle := 0; cycle < 50; cycle++ {
		req := simpleRequest(fmt.Sprintf("life-%d", cycle), 40, "filter", "transcode")
		g := submit(t, s, 0, req, &core.MinCost{})
		s.Sim.RunUntil(s.Sim.Now() + 500*time.Millisecond)
		if cycle == 0 {
			hosting := 0
			for _, n := range rows() {
				hosting += n
			}
			if hosting == 0 {
				t.Fatal("no engine has a component row mid-stream; the scenario no longer exercises the monitor")
			}
		}
		// Teardown first, drain after: units still in flight or queued
		// are processed, dropped or found stale once their rows are gone.
		s.Engines[0].Teardown(g, rpcTimeout)
		s.Sim.RunUntil(s.Sim.Now() + 500*time.Millisecond)
	}
	after := rows()
	for i := range after {
		if after[i] != before[i] {
			t.Errorf("engine %d reports %d component rows after 50 cycles, had %d before the first", i, after[i], before[i])
		}
		if c := s.Engines[i].Components(); c != 0 {
			t.Errorf("engine %d still hosts %d components", i, c)
		}
	}
	for i := 1; i < len(s.Engines); i++ {
		if got := statsReplyBytes(t, s, i); got != replyBefore[i] || got == 0 {
			t.Errorf("node %d's stats reply is %d bytes after 50 cycles, was %d before the first", i, got, replyBefore[i])
		}
	}
}
