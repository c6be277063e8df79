package tenant

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTenantMetricsCatalogue pins the rasc_tenant_* family catalogue
// (# HELP / # TYPE lines) exposed on /metrics. Values are process-global
// and order-dependent across tests, so the golden captures the catalogue,
// not samples.
func TestTenantMetricsCatalogue(t *testing.T) {
	// Drive every family at least once: admissions in every outcome,
	// a preemption, cap changes and the posture gauges.
	g := NewGate(Config{CapacityBps: 10000, QueueCapacity: 1, MinShareFraction: 0.5})
	g.Admit("be", spec.BestEffort, 9000, nil)
	g.Admit("crit", spec.Critical, 16000, nil) // preempts be into the queue
	g.Admit("rej", spec.BestEffort, 1e9, nil)  // queue full: rejected
	g.Release("crit")                          // promotes be

	exp := telemetry.Default().String()
	var got strings.Builder
	for _, line := range strings.Split(exp, "\n") {
		if strings.HasPrefix(line, "# HELP rasc_tenant_") || strings.HasPrefix(line, "# TYPE rasc_tenant_") {
			got.WriteString(line)
			got.WriteString("\n")
		}
	}
	path := filepath.Join("testdata", "tenant_metrics.golden")
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
		t.Errorf("tenant catalogue mismatch\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}

	for _, name := range []string{
		"rasc_tenant_admissions_total",
		"rasc_tenant_preemptions_total",
		"rasc_tenant_cap_changes_total",
		"rasc_tenant_fair_share_recomputes_total",
		"rasc_tenant_active",
		"rasc_tenant_queued",
		"rasc_tenant_capacity_bps",
		"rasc_tenant_demand_bps",
		"rasc_tenant_recompute_duration_seconds",
	} {
		if !strings.Contains(exp, name) {
			t.Errorf("%s missing from exposition", name)
		}
	}
}
