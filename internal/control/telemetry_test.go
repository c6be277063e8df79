package control

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestControlMetricsCatalogue pins the rasc_control_* family catalogue
// (# HELP / # TYPE lines) exposed on /metrics. Values are process-global
// and order-dependent across tests, so the golden captures the catalogue,
// not samples.
func TestControlMetricsCatalogue(t *testing.T) {
	// Drive every family at least once: an incremental success, a failed
	// attempt (failures + retry), a suppressed duplicate, and the gauge.
	c, clk, act := newTestController(t, Config{})
	c.Publish(Event{Kind: MemberDead, App: "a", Host: overlay.ID{9}})
	clk.advance(0)
	c.Publish(Event{Kind: MemberDead, App: "a", Host: overlay.ID{9}})
	clk.advance(0)
	act.finish(t, os.ErrDeadlineExceeded)
	clk.advance(retryBackoff)
	act.finish(t, nil)

	exp := telemetry.Default().String()
	var got strings.Builder
	for _, line := range strings.Split(exp, "\n") {
		if strings.HasPrefix(line, "# HELP rasc_control_") || strings.HasPrefix(line, "# TYPE rasc_control_") {
			got.WriteString(line)
			got.WriteString("\n")
		}
	}
	path := filepath.Join("testdata", "control_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("control catalogue mismatch\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}

	for _, name := range []string{
		"rasc_control_events_total",
		"rasc_control_reallocations_total",
		"rasc_control_failures_total",
		"rasc_control_suppressed_total",
		"rasc_control_inflight",
	} {
		if !strings.Contains(exp, name) {
			t.Errorf("%s missing from exposition", name)
		}
	}
}
