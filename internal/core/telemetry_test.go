package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rasc.dev/rasc/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestComposeMetricsCatalogue pins the rasc_compose_* family catalogue
// (# HELP / # TYPE lines) exposed on /metrics. Values are process-global
// and order-dependent across tests, so the golden captures the catalogue,
// not samples.
func TestComposeMetricsCatalogue(t *testing.T) {
	// Populate both families: two back-to-back compositions guarantee at
	// least one warm-scratch acquisition.
	in := wideInput(6, 5, "filter", "transcode")
	for i := 0; i < 3; i++ {
		if _, err := (&MinCost{}).Compose(in); err != nil {
			t.Fatal(err)
		}
	}

	exp := telemetry.Default().String()
	var got strings.Builder
	for _, line := range strings.Split(exp, "\n") {
		if strings.HasPrefix(line, "# HELP rasc_compose_") || strings.HasPrefix(line, "# TYPE rasc_compose_") {
			got.WriteString(line)
			got.WriteString("\n")
		}
	}
	path := filepath.Join("testdata", "compose_metrics.golden")
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
		t.Errorf("compose catalogue mismatch\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}

	if !strings.Contains(exp, "rasc_compose_duration_seconds_count") {
		t.Error("compose duration histogram never observed")
	}
	if !strings.Contains(exp, "rasc_compose_solver_reuse_total") {
		t.Error("solver reuse counter missing from exposition")
	}
}
