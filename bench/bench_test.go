package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// Two runs of one seed agree on every exact metric and count; the checks
// all pass at the CI size.
func TestSimWorkloadsAreDeterministic(t *testing.T) {
	for _, full := range simWorkloads {
		w := full.shortened()
		t.Run(w.name, func(t *testing.T) {
			a, b := w.run(1, 0), w.run(1, 0)
			for _, v := range a.violations {
				t.Errorf("check failed: %s", v)
			}
			if a.attempted != b.attempted || a.failed != b.failed || a.attempted < 1 {
				t.Errorf("operations differ between two runs of seed 1: %d/%d vs %d/%d", a.attempted, a.failed, b.attempted, b.failed)
			}
			// The batched plane flushes its open batches in map order when
			// a request stops. When the stop finds two of them open, the
			// simulator's jitter lands on them in either order and a few of
			// some 25000 units fare differently; still well inside the
			// hundredth that -compare allows an exact metric.
			tolerance := 0.0
			if w.plane.BatchUnits > 1 {
				tolerance = exactBound / 2
			}
			for m := range exactOnSim {
				if math.Abs(a.metrics[m]-b.metrics[m]) > tolerance*a.metrics[m] {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", m, a.metrics[m], b.metrics[m])
				}
				if a.metrics[m] == 0 {
					t.Errorf("%s is 0", m)
				}
			}
			for _, d := range endToEnd {
				if _, ok := a.metrics[d.name]; !ok {
					t.Errorf("untraced run did not emit %s", d.name)
				}
			}
		})
	}
}

// The generated request list moves with the seed, and is pinned for seed 1
// so that the benchmark's inputs cannot drift unnoticed.
func TestRequestPlans(t *testing.T) {
	golden := map[string]string{
		"sim-stream":         "1c9ac133ebd4e3d4",
		"sim-stream-batched": "1da1c5a7b3d1935d",
		"sim-compose":        "4db312a82632da3f",
		"sim-contended":      "c113edbb7fd213ad",
	}
	for _, w := range simWorkloads {
		one, again, two := planHash(w.plan(1, 0)), planHash(w.plan(1, 0)), planHash(w.plan(2, 0))
		if one != again {
			t.Errorf("%s: the same seed gave two request lists", w.name)
		}
		if one == two {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
		if one != golden[w.name] {
			t.Errorf("%s: request list for seed 1 hashes to %s, pinned %s", w.name, one, golden[w.name])
		}
	}
	if a, b := planHash(simWorkloads[0].plan(1, 0)), planHash(simWorkloads[1].plan(1, 0)); a == b {
		// Same traffic by design; only the request-ID prefix differs.
		t.Errorf("sim-stream and sim-stream-batched share request IDs")
	}
}

func TestContendedCycleIsSizedToCapacity(t *testing.T) {
	w := simWorkloadByName("sim-contended", false)
	for seed := int64(1); seed <= 5; seed++ {
		n := len(w.plan(seed, 0)[0])
		if n < 20 || n >= w.apps {
			t.Errorf("seed %d: %d apps in the contended cycle, want about 36 and below the cap of %d", seed, n, w.apps)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: the union 10–60 is covered once
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "a", Start: 90, End: 120}, // clipped to the parent's end
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": (30 - 5) + 30, "b": 30, "leaf": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, got[name], w)
		}
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder(nil)
	a := r.begin("a", "")
	b := r.begin("b", "req")
	r.end(b)
	c := r.begin("c", "")
	r.end(c)
	r.end(a)
	if r.spans[b-1].Parent != a || r.spans[c-1].Parent != a || r.spans[a-1].Parent != 0 {
		t.Errorf("parents: %+v", r.spans)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", "")) // the untraced run records nothing and must not panic
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		some bool
	}{{39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, ok := supportedTail(c.n)
		if ok != c.some || p != c.p {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.some)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Errorf("p99 needs exactly 1000 samples to leave ten beyond it")
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100 … 1, unsorted
	}
	if percentile(v, 50) != 50 || percentile(v, 99) != 99 || percentile(v, 100) != 100 || median(nil) != 0 {
		t.Errorf("nearest-rank percentiles: p50 %v p99 %v p100 %v", percentile(v, 50), percentile(v, 99), percentile(v, 100))
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the contract's spread is defined on.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3} // quantiles → [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles(v)
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// Sets are compared in pairs: a[i] and b[i] ran the same seed, so values
// that differ widely from seed to seed still resolve a small change.
func TestVerdict(t *testing.T) {
	a := []float64{100, 150, 80, 120, 100}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{103, 156, 82, 123, 103}, "lower", "same"},
		{[]float64{112, 169, 89, 134, 112}, "lower", "worse"},
		{[]float64{112, 169, 89, 134, 112}, "higher", "same"},
		{[]float64{88, 133, 70, 106, 88}, "higher", "worse"},
		{[]float64{70, 195, 80, 72, 140}, "lower", "unresolved"},
	} {
		if got, _ := verdict(a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
	if got, change := verdict(a, []float64{102, 153, 81.6, 122.4, 102}, "lower", exactBound); got != "worse" || math.Abs(change-0.02) > 1e-9 {
		t.Errorf("a 2 %% move of an exact metric is %s (change %v), want worse", got, change)
	}
	if pairBound("sim-contended", "rate_attainment", 0.2) != exactBound || pairBound("live-loopback", "rate_attainment", 0.2) != hostBound ||
		pairBound("sim-stream", "units_per_s", 0.25) != hostBound || pairBound("sim-stream", "units_per_s", 0.05) != 0.05 {
		t.Errorf("pairBound: exact metrics on sim-* take %v, everything else the smaller of its contract bound and %v", exactBound, hostBound)
	}
}

// A deliberately broken expectation fails the command: the check is live.
func TestBrokenExpectationFailsTheCommand(t *testing.T) {
	if !conserved(10, 7, 3, true) || conserved(10, 7, 2, true) || !conserved(10, 7, 2, false) || conserved(10, 8, 3, false) {
		t.Fatal("conservation rule")
	}
	within, over := newOutcome(), newOutcome()
	simWorkloads[0].checkUnaccounted(within, &segment{emitted: 1000, unaccounted: 30})
	simWorkloads[0].checkUnaccounted(over, &segment{emitted: 1000, unaccounted: 31})
	if len(within.violations) != 0 || len(over.violations) != 1 {
		t.Fatal("cap on unaccounted units")
	}
	defer func(old func(int64, int64, int64, bool) bool) { flowRule = old }(flowRule)
	flowRule = func(emitted, delivered, dropped int64, exact bool) bool {
		return conserved(emitted+1, delivered, dropped, true) // expects a unit nobody emitted
	}
	if code := runDriver("sim-compose", 1, 0, false, true); code == 0 {
		t.Fatal("the command exited 0 with a violated check")
	}
	flowRule = conserved
	if code := runDriver("sim-compose", 1, 0, false, true); code != 0 {
		t.Fatalf("the command exited %d with every check passing", code)
	}
	if code := runDriver("no-such-workload", 1, 0, false, true); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
	if report(newOutcome(), nil) {
		t.Fatal("a run that attempted no operation was reported correct")
	}
}

// BENCHMARK.json parses, names only what the runner emits, and agrees with
// the catalogue on every unit and direction.
func TestContractMatchesTheRunner(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads in BENCHMARK.json, the runner has %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the runner's is %q", i, w.Name, workloadNames[i])
		}
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if sw := simWorkloadByName(w.Name, false); sw != nil && sw.why != w.Why {
			t.Errorf("workload %q: why differs from the runner's", w.Name)
		}
	}
	if c.Workloads[len(c.Workloads)-1].Why != liveWhy {
		t.Errorf("live-loopback: why differs from the runner's")
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, the runner emits %d", kind, len(got), len(want))
		}
		byName := make(map[string]metricDef)
		for _, d := range want {
			byName[d.name] = d
		}
		for _, m := range got {
			d, ok := byName[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %q is not emitted by the runner", kind, m.Name)
			case !name.MatchString(m.Name):
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			case d.unit != m.Unit || d.better != m.Better:
				t.Errorf("%s: %q is %s/%s in BENCHMARK.json, %s/%s in the runner", kind, m.Name, m.Unit, m.Better, d.unit, d.better)
			case bounded != (m.Bound != nil):
				t.Errorf("%s: %q: only end-to-end metrics carry a bound", kind, m.Name)
			case bounded && (*m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: %q: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
			delete(byName, m.Name)
		}
		for n := range byName {
			t.Errorf("%s: the runner emits %q, BENCHMARK.json does not name it", kind, n)
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	if b, err := os.ReadFile("../BENCHMARK.json"); err == nil && len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(b))
	}
}

// The traced run emits every per-layer metric, its result line parses, and
// the per-hop split adds up by construction.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // the trace file goes to ./results
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	o, err := runWorkload("sim-stream", 1, 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range o.violations {
		t.Errorf("check failed: %s", v)
	}
	host, probe, self := o.metrics["stream.host_ns_per_hop"], o.metrics["stream.probe_ns_per_hop"], o.metrics["stream.self_ns_per_hop"]
	if host <= 0 || math.Abs(host-(probe+self)) > 1e-6*host {
		t.Errorf("host_ns_per_hop %v != probe %v + self %v", host, probe, self)
	}
	if o.metrics["trace.overhead_ratio"] <= 0 || o.metrics["trace.events"] <= 0 {
		t.Errorf("tracing left no mark: overhead %v, events %v", o.metrics["trace.overhead_ratio"], o.metrics["trace.events"])
	}
	b, err := os.ReadFile("results/trace-sim-stream.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) == 0 || tf.SelfNs["core.Compose"] <= 0 {
		t.Errorf("trace file: %v, %d spans, Compose self time %d", err, len(tf.Spans), tf.SelfNs["core.Compose"])
	}
}
