package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// quickCfg is a miniature sweep that runs in well under a second.
func quickCfg() Config {
	return Config{
		Nodes:      12,
		Seeds:      []int64{1},
		Rates:      []int{5},
		Requests:   4,
		Composers:  []string{"mincost", "greedy"},
		SubmitGap:  200 * time.Millisecond,
		MeasureFor: 5 * time.Second,
	}
}

func TestRunProducesAllRuns(t *testing.T) {
	var progress []string
	cfg := quickCfg()
	cfg.Progress = func(s string) { progress = append(progress, s) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 { // 1 rate × 2 composers × 1 seed
		t.Fatalf("runs = %d, want 2", len(res.Runs))
	}
	if len(progress) != 2 {
		t.Fatalf("progress lines = %d", len(progress))
	}
	for _, r := range res.Runs {
		if r.Submitted != 4 {
			t.Fatalf("submitted = %d", r.Submitted)
		}
		if r.Composed == 0 || r.Emitted == 0 || r.Received == 0 {
			t.Fatalf("empty run stats: %+v", r)
		}
		if r.DeliveredFraction() <= 0 || r.DeliveredFraction() > 1 {
			t.Fatalf("delivered fraction = %g", r.DeliveredFraction())
		}
	}
}

func TestRunOneDeterministic(t *testing.T) {
	cfg := quickCfg()
	a, err := RunOne(cfg, "mincost", 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg, "mincost", 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestFigureTables(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for n := 6; n <= 11; n++ {
		tab, err := res.Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(tab.Title, "Figure") {
			t.Fatalf("figure %d title = %q", n, tab.Title)
		}
		if len(tab.Series) != 2 {
			t.Fatalf("figure %d has %d series", n, len(tab.Series))
		}
		// 5 units/sec at 1250-byte units = 50 Kbps row.
		if tab.XVals[0] != 50 {
			t.Fatalf("x value = %d, want 50", tab.XVals[0])
		}
	}
	if _, err := res.Figure(5); err == nil {
		t.Fatal("figure 5 does not exist in the paper's evaluation")
	}
	all, err := res.AllFigures()
	if err != nil || len(all) != 6 {
		t.Fatalf("AllFigures = %d tables, err %v", len(all), err)
	}
}

func TestRunStatsZeroDivision(t *testing.T) {
	var r RunStats
	if r.DeliveredFraction() != 0 || r.TimelyFraction() != 0 ||
		r.OutOfOrderFraction() != 0 || r.MeanDelayMs() != 0 || r.MeanJitterMs() != 0 {
		t.Fatal("zero run stats must report zeros")
	}
}

func TestRateKbps(t *testing.T) {
	if got := rateKbps(10, 1250); got != 100 {
		t.Fatalf("rateKbps = %d, want 100", got)
	}
}

func TestRunScalabilitySmall(t *testing.T) {
	var lines []string
	tab, err := RunScalability(ScalabilityConfig{
		NodeCounts:      []int{8, 12},
		Seeds:           []int64{1},
		RequestsPerNode: 0.25,
		Progress:        func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.XVals) != 2 || len(tab.Series) != 3 {
		t.Fatalf("table shape: x=%v series=%d", tab.XVals, len(tab.Series))
	}
	for _, n := range []int{8, 12} {
		if tab.Get("composed", n) <= 0 {
			t.Fatalf("no compositions at %d nodes", n)
		}
		if f := tab.Get("delivered_frac", n); f <= 0 || f > 1 {
			t.Fatalf("delivered fraction %g at %d nodes", f, n)
		}
		if tab.Get("compose_ms", n) <= 0 {
			t.Fatalf("zero compose latency at %d nodes", n)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("progress lines = %d", len(lines))
	}
}

func TestMeanComposeLatency(t *testing.T) {
	rs := RunStats{Composed: 2, SumComposeLatency: 3 * time.Second}
	if got := rs.MeanComposeLatencyMs(); got != 1500 {
		t.Fatalf("MeanComposeLatencyMs = %g", got)
	}
	if (RunStats{}).MeanComposeLatencyMs() != 0 {
		t.Fatal("zero stats must report 0")
	}
}

func TestRunOptionsVariants(t *testing.T) {
	// Exercise the Poisson, stale-stats and background-load options in
	// one miniature run each: all must complete with sane stats.
	variants := map[string]Config{
		"poisson":    {PoissonArrivals: true},
		"stalestats": {StatsMaxAge: 30 * time.Second},
		"background": {BackgroundFlows: 10},
	}
	for name, cfg := range variants {
		cfg.Nodes = 12
		cfg.Seeds = []int64{1}
		cfg.Rates = []int{5}
		cfg.Requests = 4
		cfg.Composers = []string{"mincost"}
		cfg.MeasureFor = 5 * time.Second
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rs := res.Runs[0]
		if rs.Composed == 0 || rs.Received == 0 {
			t.Fatalf("%s: empty run %+v", name, rs)
		}
		if f := rs.DeliveredFraction(); f <= 0 || f > 1 {
			t.Fatalf("%s: delivered fraction %g", name, f)
		}
	}
}

func TestDelayP95TableShape(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.DelayP95Table()
	for _, name := range []string{"mincost", "greedy"} {
		v := tab.Get(name, 50)
		if v <= 0 {
			t.Fatalf("%s p95 = %g", name, v)
		}
		// p95 must be at least the mean.
		var mean float64
		for _, run := range res.Runs {
			if run.Composer == name {
				mean = run.MeanDelayMs()
			}
		}
		if v < mean {
			t.Fatalf("%s p95 %g below mean %g", name, v, mean)
		}
	}
}

// TestStatsSourceGossipAdmitsAtLeastStale compares the same seeded
// workload under gossip-disseminated statistics and under the
// stale-statistics ablation: composition fed by the membership protocol's
// fresh digests must admit at least as many requests as one fed by
// 30-second-old cached reports.
func TestStatsSourceGossipAdmitsAtLeastStale(t *testing.T) {
	base := Config{
		Nodes:      16,
		Requests:   8,
		SubmitGap:  300 * time.Millisecond,
		MeasureFor: 3 * time.Second,
	}

	gossipCfg := base
	gossipCfg.StatsSource = "gossip"
	gossipRun, err := RunOne(gossipCfg, "mincost", 5, 1)
	if err != nil {
		t.Fatal(err)
	}

	staleCfg := base
	staleCfg.StatsSource = "stale"
	staleRun, err := RunOne(staleCfg, "mincost", 5, 1)
	if err != nil {
		t.Fatal(err)
	}

	if gossipRun.Composed == 0 {
		t.Fatal("gossip-fed run admitted nothing")
	}
	if gossipRun.Composed < staleRun.Composed {
		t.Fatalf("gossip-fed run admitted %d requests, stale-stats run %d; want gossip >= stale",
			gossipRun.Composed, staleRun.Composed)
	}
	t.Logf("admitted: gossip=%d/%d stale=%d/%d",
		gossipRun.Composed, gossipRun.Submitted, staleRun.Composed, staleRun.Submitted)
}

func TestStatsSourceUnknownRejected(t *testing.T) {
	cfg := Config{Nodes: 8, Requests: 1}
	cfg.StatsSource = "psychic"
	if _, err := RunOne(cfg, "mincost", 5, 1); err == nil {
		t.Fatal("unknown StatsSource accepted")
	}
}
