package control

import (
	"errors"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/overlay"
)

// obsRecord is one observer callback, flattened for assertions.
type obsRecord struct {
	kind     string // "gate" | "launch" | "outcome"
	app      string
	gate     string
	latched  bool
	evKind   EventKind
	mode     string
	degraded []overlay.ID
	subs     []int
	upgrade  bool
	fellBack bool
	err      error
	backoff  time.Duration
}

type recObserver struct {
	records []obsRecord
}

func (r *recObserver) OnEventGate(app string, ev Event, gate string, latched bool) {
	r.records = append(r.records, obsRecord{kind: "gate", app: app, gate: gate, latched: latched, evKind: ev.Kind})
}

func (r *recObserver) OnLaunch(app, mode string, degraded []overlay.ID, subs []int, upgrade bool) {
	r.records = append(r.records, obsRecord{kind: "launch", app: app, mode: mode, degraded: degraded, subs: subs, upgrade: upgrade})
}

func (r *recObserver) OnOutcome(app, mode string, fellBack bool, err error, backoff time.Duration) {
	r.records = append(r.records, obsRecord{kind: "outcome", app: app, mode: mode, fellBack: fellBack, err: err, backoff: backoff})
}

// TestObserverCausalSequence checks the callbacks for one clean
// incremental reallocation arrive in causal order with the gate verdict,
// launch shape and outcome.
func TestObserverCausalSequence(t *testing.T) {
	obs := &recObserver{}
	c, clk, act := newTestController(t, Config{Observer: obs})
	act.appsOn[host(7)] = []string{"a"}
	c.Publish(Event{Kind: MemberDead, Host: host(7)})
	clk.advance(0)
	act.finish(t, nil)

	if len(obs.records) != 3 {
		t.Fatalf("records = %+v, want gate+launch+outcome", obs.records)
	}
	g, l, o := obs.records[0], obs.records[1], obs.records[2]
	if g.kind != "gate" || g.app != "a" || g.gate != GateNone || g.evKind != MemberDead {
		t.Fatalf("gate record = %+v", g)
	}
	if l.kind != "launch" || l.app != "a" || l.mode != "incremental" ||
		len(l.degraded) != 1 || l.degraded[0] != host(7) || l.subs != nil {
		t.Fatalf("launch record = %+v", l)
	}
	if o.kind != "outcome" || o.app != "a" || o.mode != "incremental" ||
		o.fellBack || o.err != nil || o.backoff != 0 {
		t.Fatalf("outcome record = %+v", o)
	}
}

// TestObserverGateVerdicts checks held events report the gate that held
// them and whether the work was latched.
func TestObserverGateVerdicts(t *testing.T) {
	obs := &recObserver{}
	c, clk, act := newTestController(t, Config{Observer: obs})
	act.appsOn[host(3)] = []string{"a"}

	// The first member-death launches; a second during the inflight window
	// is latched behind the inflight gate.
	c.Publish(Event{Kind: MemberDead, Host: host(3)})
	clk.advance(0)
	if len(obs.records) != 2 || obs.records[0].gate != GateNone || obs.records[1].kind != "launch" {
		t.Fatalf("first event records = %+v, want gate none + launch", obs.records)
	}
	c.Publish(Event{Kind: MemberDead, Host: host(3)})
	clk.advance(0)
	last := obs.records[len(obs.records)-1]
	if last.kind != "gate" || last.app != "a" || last.gate != GateInflight || !last.latched {
		t.Fatalf("inflight record = %+v", last)
	}
}

// TestObserverFallbackOutcome checks an infeasible incremental solve that
// fell back to full recompose reports mode "full" with fellBack set.
func TestObserverFallbackOutcome(t *testing.T) {
	obs := &recObserver{}
	c, clk, act := newTestController(t, Config{Observer: obs})
	act.appsOn[host(7)] = []string{"a"}
	c.Publish(Event{Kind: MemberDead, Host: host(7)})
	clk.advance(0)
	act.finish(t, core.ErrNoFeasiblePlacement) // incremental attempt
	act.finish(t, nil)                         // fallback recompose
	o := obs.records[len(obs.records)-1]
	if o.kind != "outcome" || o.mode != "full" || !o.fellBack || o.err != nil {
		t.Fatalf("outcome record = %+v", o)
	}
}

// TestObserverFailureBackoff checks a failed reallocation reports the
// armed retry backoff.
func TestObserverFailureBackoff(t *testing.T) {
	obs := &recObserver{}
	c, clk, act := newTestController(t, Config{Observer: obs})
	act.appsOn[host(7)] = []string{"a"}
	c.Publish(Event{Kind: MemberDead, Host: host(7)})
	clk.advance(0)
	act.finish(t, errors.New("transport down"))
	o := obs.records[len(obs.records)-1]
	if o.kind != "outcome" || o.err == nil || o.backoff != retryBackoff {
		t.Fatalf("outcome record = %+v", o)
	}
}

// TestAppStatuses checks the introspection snapshot reflects gate state:
// inflight while a reallocation runs, cooldown after it succeeds.
func TestAppStatuses(t *testing.T) {
	c, clk, act := newTestController(t, Config{Cooldown: 30 * time.Second})
	act.appsOn[host(7)] = []string{"a"}
	c.Publish(Event{Kind: MemberDead, Host: host(7)})
	clk.advance(0)

	sts := c.AppStatuses()
	if len(sts) != 1 || sts[0].App != "a" || !sts[0].Inflight {
		t.Fatalf("statuses during flight = %+v", sts)
	}
	act.finish(t, nil)
	sts = c.AppStatuses()
	if sts[0].Inflight || sts[0].CooldownRemaining != 30*time.Second {
		t.Fatalf("statuses after success = %+v", sts)
	}
	clk.advance(10 * time.Second)
	if got := c.AppStatuses()[0].CooldownRemaining; got != 20*time.Second {
		t.Fatalf("cooldown remaining = %v, want 20s", got)
	}
}
