package stream

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rasc.dev/rasc/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStreamMetricsCatalogue pins the rasc_stream_* and rasc_dataplane_*
// family catalogue (# HELP / # TYPE lines) exposed on /metrics, and the
// drop causes, which are registered eagerly so each shows at 0. Values are
// process-global and order-dependent across tests, so the golden captures
// the catalogue, not samples.
func TestStreamMetricsCatalogue(t *testing.T) {
	exp := telemetry.Default().String()
	var got strings.Builder
	for _, line := range strings.Split(exp, "\n") {
		for _, prefix := range []string{"# HELP rasc_stream_", "# TYPE rasc_stream_", "# HELP rasc_dataplane_", "# TYPE rasc_dataplane_"} {
			if strings.HasPrefix(line, prefix) {
				got.WriteString(line)
				got.WriteString("\n")
			}
		}
		if strings.HasPrefix(line, "rasc_stream_dropped_total{") {
			got.WriteString(line[:strings.Index(line, "}")+1])
			got.WriteString("\n")
		}
	}
	path := filepath.Join("testdata", "stream_metrics.golden")
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
		t.Errorf("stream catalogue mismatch\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}
