package live

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// adminGet fetches a path from the admin server, retrying briefly while
// the goroutine serving the listener comes up.
func adminGet(t *testing.T, adm *AdminServer, path string) (int, string) {
	t.Helper()
	var lastErr error
	for i := 0; i < 20; i++ {
		resp, err := http.Get("http://" + adm.Addr() + path)
		if err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
	t.Fatalf("GET %s: %v", path, lastErr)
	return 0, ""
}

func TestAdminEndpoint(t *testing.T) {
	nodes := startCluster(t, 2, [][]string{{"filter"}, {"transcode"}})
	adm, err := nodes[0].ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adm.Close() })

	code, body := adminGet(t, adm, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d, body %s", code, body)
	}
	var st healthStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if !st.Joined || !st.Listener || st.Peers < 1 {
		t.Fatalf("healthz = %+v, want joined with peers", st)
	}

	code, body = adminGet(t, adm, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	// One series from each instrumented subsystem must be present: the
	// scheduler registers at engine construction, transport counts the
	// join/stabilize traffic, and the scrape itself assembles a monitor
	// report.
	for _, want := range []string{
		"# TYPE rasc_sched_scheduled_total counter",
		`rasc_sched_scheduled_total{policy="llf"}`,
		"# TYPE rasc_stream_dropped_total counter",
		`rasc_stream_dropped_total{cause="laxity"}`,
		"# TYPE rasc_stream_early_units_total counter",
		"# TYPE rasc_transport_messages_total counter",
		`rasc_transport_messages_total{transport="tcp",direction="in"}`,
		"# TYPE rasc_monitor_reports_total counter",
		"rasc_monitor_reports_total",
		"# TYPE rasc_live_active_requests gauge",
		"rasc_live_compose_attempts_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// pprof must answer on the same port.
	code, _ = adminGet(t, adm, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestHealthzBeforeListenerDeath(t *testing.T) {
	nodes := startCluster(t, 1, nil)
	adm, err := nodes[0].ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adm.Close() })
	if code, _ := adminGet(t, adm, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d before close", code)
	}
	// Kill the protocol endpoint: liveness must go unhealthy while the
	// admin port still answers.
	nodes[0].ep.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get("http://" + adm.Addr() + "/healthz")
		if err != nil {
			t.Fatalf("admin died with the protocol listener: %v", err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz still %d after listener close", code)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestHealthzGossipSummary(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	adm, err := nodes[0].ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adm.Close() })

	// The gossip view is seeded from the leaf set at startup, so all three
	// members appear alive immediately; digest dissemination needs protocol
	// round trips, so poll briefly for a non-negative age.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := adminGet(t, adm, "/healthz")
		var st healthStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("healthz body %q: %v", body, err)
		}
		if st.Gossip == nil {
			t.Fatalf("healthz %q missing gossip summary", body)
		}
		if st.Gossip.Alive == 3 && st.Gossip.Suspect == 0 && st.Gossip.Dead == 0 &&
			st.Gossip.OldestDigestAgeMs >= 0 {
			if !strings.Contains(body, `"gossip"`) || !strings.Contains(body, `"oldestDigestAgeMs"`) {
				t.Fatalf("healthz body %q missing gossip JSON fields", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip summary never converged: %+v", st.Gossip)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
