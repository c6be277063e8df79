package deploy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/live"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/services"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/telemetry"
	"rasc.dev/rasc/internal/trace"
)

// appTimeBelow reads the per-application availability counter. The vec is
// process-global; registration here fetches the family the stream package
// already registered.
func appTimeBelow(app string) float64 {
	return telemetry.Default().FloatCounterVec(
		"rasc_app_time_below_requested_seconds_total",
		"Seconds an application's delivered rate was below the adaptation threshold.",
		"app").With(app).Value()
}

// decisionFailover mirrors failoverDipDuration — same topology, seed,
// request shape and kill — but measures the decision plane instead of raw
// delivery: it returns the journal's decisions for the application and the
// virtual seconds rasc_app_time_below_requested_seconds_total accrued over
// the failover. appID must be unique per call because telemetry is
// process-global.
func decisionFailover(t *testing.T, fullOnly bool, appID string) ([]trace.Decision, float64, *System) {
	t.Helper()
	adapt := stream.AdaptationConfig{Interval: 10 * time.Minute}
	if fullOnly {
		adapt.Composer = recomposeOnly{&core.MinCost{}}
	}
	s := NewSystem(SystemOptions{
		Nodes:        16,
		Seed:         7,
		EnableGossip: true,
		Gossip:       gossip.Config{ProbeTimeout: 500 * time.Millisecond},
		Adaptation:   &adapt,
	})
	const origin = 0
	offered := map[string]bool{}
	for _, svc := range s.Placement[origin] {
		offered[svc] = true
	}
	var remote []string
	for _, name := range services.Standard().Names() {
		if !offered[name] {
			remote = append(remote, name)
		}
	}
	if len(remote) < 2 {
		t.Fatal("origin offers too many services; cannot force remote placements")
	}
	// Substream 1 carries twice the victim substream's rate, so while the
	// incremental arm re-places substream 0 it still delivers 2/3 of the
	// request: above the meter's fixed half-rate threshold, where the
	// teardown arm delivers nothing.
	req := spec.Request{
		ID:        appID,
		UnitBytes: 1250,
		Substreams: []spec.Substream{
			{Services: []string{remote[0]}, Rate: 10},
			{Services: []string{remote[1]}, Rate: 20},
		},
	}
	var graph *core.ExecutionGraph
	done := false
	s.Engines[origin].Submit(req, &core.MinCost{}, 10*time.Second, func(g *core.ExecutionGraph, err error) {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		graph, done = g, true
	})
	deadline := s.Sim.Now() + 60*time.Second
	for !done && s.Sim.Now() < deadline {
		s.Sim.RunUntil(s.Sim.Now() + 100*time.Millisecond)
	}
	if !done {
		t.Fatal("composition did not complete")
	}
	byID := map[overlay.ID]int{}
	for i, n := range s.Nodes {
		byID[n.ID()] = i
	}
	victim, victimRate := -1, 0.0
	for _, p := range graph.Placements {
		if p.Substream == 0 && byID[p.Host.ID] != origin && p.Rate > victimRate {
			victim, victimRate = byID[p.Host.ID], p.Rate
		}
	}
	if victim < 0 {
		t.Fatal("no remote placement to kill")
	}
	for _, p := range graph.Placements {
		if p.Substream == 1 && byID[p.Host.ID] == victim {
			t.Fatalf("substreams share host %d; pick another seed", victim)
		}
	}
	// Warm up so the availability meter has a healthy baseline, then
	// measure the accrual across the kill and its recovery window.
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	before := appTimeBelow(appID)
	s.Kill(victim)
	horizon := s.Sim.Now() + 40*time.Second
	for s.Sim.Now() < horizon {
		s.Sim.RunUntil(s.Sim.Now() + 250*time.Millisecond)
	}
	// A few extra sampling periods let the meter observe the recovered
	// rate and stamp convergence on the journal.
	s.Sim.RunUntil(s.Sim.Now() + 5*time.Second)
	var ds []trace.Decision
	for _, d := range s.Journal.Decisions() {
		if d.App == appID {
			ds = append(ds, d)
		}
	}
	return ds, appTimeBelow(appID) - before, s
}

// TestFailoverDecisionJournal is the acceptance check for decision-plane
// tracing: after a member-dead failover the journal must hold the complete
// causal chain — trigger, controller decision, solver statistics,
// reallocation outcome and convergence timestamp — the availability metric
// must accrue strictly less below-threshold time with incremental
// reallocation than with teardown-recompose, and /debug/rasc/decisions
// must serve the journal live.
func TestFailoverDecisionJournal(t *testing.T) {
	incrDs, incrBelow, incrSys := decisionFailover(t, false, "chain-incr")
	fullDs, fullBelow, _ := decisionFailover(t, true, "chain-full")

	// --- causal chain, incremental mode ---
	var dec *trace.Decision
	for i := range incrDs {
		if incrDs[i].Trigger == "member_dead" && incrDs[i].Outcome == "success" {
			dec = &incrDs[i]
			break
		}
	}
	if dec == nil {
		t.Fatalf("no successful member_dead decision in journal: %+v", incrDs)
	}
	if dec.Mode != "incremental" {
		t.Fatalf("decision mode = %q, want incremental", dec.Mode)
	}
	if !strings.HasPrefix(dec.Cause, "member dead: ") {
		t.Fatalf("decision cause = %q", dec.Cause)
	}
	spans := map[string]trace.Span{}
	for _, sp := range dec.Spans {
		spans[sp.Name] = sp
	}
	for _, name := range []string{"decision", "decide", "solve", "apply"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("decision missing %q span: %s", name, trace.FormatDecision(*dec))
		}
	}
	solve := spans["solve"]
	for _, attr := range []string{"iterations", "candidates", "feasible"} {
		if _, ok := solve.Attr(attr); !ok {
			t.Errorf("solve span missing %q attribute: %+v", attr, solve)
		}
	}
	if !dec.Converged {
		t.Fatalf("decision never converged: %s", trace.FormatDecision(*dec))
	}
	if dec.TriggeredAt > dec.CompletedAt || dec.CompletedAt >= dec.ConvergedAt {
		t.Fatalf("causal timestamps out of order: triggered %v completed %v converged %v",
			dec.TriggeredAt, dec.CompletedAt, dec.ConvergedAt)
	}

	// The recompose-only run must have fallen back to the teardown path.
	modeFull := false
	for _, d := range fullDs {
		fellBack, _ := d.Spans[0].Attr("fell_back")
		if d.Trigger == "member_dead" && d.Mode == "full" && fellBack == "true" && d.Outcome == "success" {
			modeFull = true
		}
	}
	if !modeFull {
		t.Fatalf("no successful member_dead decision that fell back to full: %+v", fullDs)
	}

	// --- availability: incremental strictly beats teardown-recompose ---
	if fullBelow <= 0 {
		t.Fatal("teardown-recompose accrued no below-threshold time; comparison is vacuous")
	}
	if incrBelow >= fullBelow {
		t.Fatalf("below-threshold seconds: incremental=%.2f full=%.2f; want incremental strictly less",
			incrBelow, fullBelow)
	}
	t.Logf("below-threshold seconds after kill: incremental=%.2f full-recompose=%.2f", incrBelow, fullBelow)

	// --- the same journal must be served live ---
	srv := httptest.NewServer(live.DecisionsHandler(incrSys.Journal))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?app=chain-incr")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/rasc/decisions = %d", resp.StatusCode)
	}
	for _, want := range []string{`"member_dead"`, `"incremental"`, `"solve"`, `"converged": true`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("live decisions body missing %s", want)
		}
	}
}
