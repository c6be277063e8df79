package live

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureJournal builds a journal with fixed virtual timestamps so the
// endpoint bodies are byte-stable: a converged incremental success for
// "chain" and a failed full recompose for "mesh".
func fixtureJournal() *trace.Journal {
	j := trace.NewJournal(8)

	a := j.Begin(100*time.Millisecond, "chain", "member_dead", "member dead: "+overlay.ID{7}.String())
	a.Span("decide", 100*time.Millisecond, 100*time.Millisecond,
		trace.A("mode", "incremental"), trace.A("degraded", overlay.ID{7}.String()))
	a.Span("solve", 100*time.Millisecond, 102*time.Millisecond,
		trace.AInt("candidates", 5), trace.AInt("iterations", 3), trace.ABool("feasible", true))
	a.Span("apply", 102*time.Millisecond, 110*time.Millisecond)
	a.Complete(110*time.Millisecond, "incremental", nil)
	j.Converge("chain", 450*time.Millisecond)

	b := j.Begin(200*time.Millisecond, "mesh", "rate_below_threshold", "substreams [0 1] below threshold")
	b.Span("decide", 200*time.Millisecond, 200*time.Millisecond, trace.A("mode", "full"))
	b.Complete(205*time.Millisecond, "full", core.ErrNoFeasiblePlacement)
	return j
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDecisionsHandler(t *testing.T) {
	srv := httptest.NewServer(DecisionsHandler(fixtureJournal()))
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("decisions = %d", code)
	}
	checkGolden(t, "decisions.golden", body)

	code, body = get(t, srv, "/?format=text")
	if code != http.StatusOK {
		t.Fatalf("decisions text = %d", code)
	}
	checkGolden(t, "decisions_text.golden", body)

	// The app filter keeps the selected application only; total/evicted
	// still describe the whole journal.
	_, body = get(t, srv, "/?app=mesh")
	var filtered struct {
		Total     int64            `json:"total"`
		Decisions []trace.Decision `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatalf("filtered body %q: %v", body, err)
	}
	if filtered.Total != 2 || len(filtered.Decisions) != 1 || filtered.Decisions[0].App != "mesh" {
		t.Fatalf("filtered = %+v", filtered)
	}

	nilSrv := httptest.NewServer(DecisionsHandler(nil))
	defer nilSrv.Close()
	if code, _ := get(t, nilSrv, "/"); code != http.StatusServiceUnavailable {
		t.Fatalf("nil journal = %d, want 503", code)
	}
}

func TestCompositionHandler(t *testing.T) {
	node := func(i byte, addr string) overlay.NodeInfo {
		return overlay.NodeInfo{ID: overlay.ID{i}, Addr: transport.Addr(addr)}
	}
	snap := []stream.AppComposition{{
		App: "chain",
		Desired: spec.Request{
			ID:         "chain",
			UnitBytes:  1250,
			Substreams: []spec.Substream{{Services: []string{"filter", "transcode"}, Rate: 10}},
		},
		Graph: &core.ExecutionGraph{
			Request:  spec.Request{ID: "chain"},
			Composer: "mincost",
			Placements: []core.Placement{
				{Substream: 0, Stage: 0, Service: "filter", Host: node(1, "10.0.0.1:4000"), Rate: 10},
				{Substream: 0, Stage: 1, Service: "transcode", Host: node(2, "10.0.0.2:4000"), Rate: 10},
			},
			Edges: []core.Edge{
				{Substream: 0, FromStage: -1, ToStage: 0, From: node(9, "10.0.0.9:4000"), To: node(1, "10.0.0.1:4000"), Rate: 10},
			},
		},
	}}
	srv := httptest.NewServer(CompositionHandler(func() []stream.AppComposition { return snap }))
	defer srv.Close()
	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("composition = %d", code)
	}
	checkGolden(t, "composition.golden", body)
}

func TestTraceHandler(t *testing.T) {
	b := trace.NewBuffer(64)
	for seq := int64(0); seq < 3; seq++ {
		at := time.Duration(seq) * 100 * time.Millisecond
		b.Append(trace.Event{At: at, Kind: trace.KindEmit, Node: "src", Req: "chain", Stage: -1, Seq: seq})
		b.Append(trace.Event{At: at + 20*time.Millisecond, Kind: trace.KindArrive, Node: "n1", Req: "chain", Stage: 0, Seq: seq})
		b.Append(trace.Event{At: at + 25*time.Millisecond, Kind: trace.KindForward, Node: "n1", Req: "chain", Stage: 0, Seq: seq})
		b.Append(trace.Event{At: at + 40*time.Millisecond, Kind: trace.KindDeliver, Node: "dst", Req: "chain", Stage: 1, Seq: seq})
	}
	srv := httptest.NewServer(TraceHandler(func() *trace.Buffer { return b }))
	defer srv.Close()

	if code, _ := get(t, srv, "/"); code != http.StatusBadRequest {
		t.Fatalf("missing req = %d, want 400", code)
	}

	code, body := get(t, srv, "/?req=chain&substream=0")
	if code != http.StatusOK {
		t.Fatalf("latencies = %d", code)
	}
	var hops []struct {
		Stage int    `json:"stage"`
		Count int    `json:"count"`
		Mean  string `json:"mean"`
	}
	if err := json.Unmarshal([]byte(body), &hops); err != nil {
		t.Fatalf("latencies body %q: %v", body, err)
	}
	if len(hops) != 2 || hops[0].Mean != "20ms" || hops[1].Mean != "15ms" {
		t.Fatalf("hops = %+v", hops)
	}

	code, body = get(t, srv, "/?req=chain&substream=0&seq=1")
	if code != http.StatusOK {
		t.Fatalf("timeline = %d", code)
	}
	for _, want := range []string{"emit", "arrive", "forward", "deliver"} {
		if !strings.Contains(body, want) {
			t.Errorf("timeline missing %q:\n%s", want, body)
		}
	}

	nilSrv := httptest.NewServer(TraceHandler(func() *trace.Buffer { return nil }))
	defer nilSrv.Close()
	if code, _ := get(t, nilSrv, "/?req=chain"); code != http.StatusServiceUnavailable {
		t.Fatalf("nil buffer = %d, want 503", code)
	}
}

func TestTenantsHandler(t *testing.T) {
	// No Clock: admission timestamps stay zero and the body is byte-stable.
	g := tenant.NewGate(tenant.Config{CapacityBps: 1e6, QueueCapacity: 4})
	g.Admit("vault", spec.Critical, 6e5, nil)
	g.Admit("batch", spec.BestEffort, 6e5, nil)
	g.Admit("etl", spec.BestEffort, 8e5, nil) // over budget: queued
	srv := httptest.NewServer(TenantsHandler(func() *tenant.Gate { return g }))
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("tenants = %d", code)
	}
	checkGolden(t, "tenants.golden", body)

	_, body = get(t, srv, "/?app=batch")
	var filtered struct {
		Totals  tenant.Totals   `json:"totals"`
		Tenants []tenant.Status `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatalf("filtered body %q: %v", body, err)
	}
	if filtered.Totals.Admitted != 2 || len(filtered.Tenants) != 1 || filtered.Tenants[0].App != "batch" {
		t.Fatalf("filtered = %+v", filtered)
	}

	nilSrv := httptest.NewServer(TenantsHandler(func() *tenant.Gate { return nil }))
	defer nilSrv.Close()
	if code, _ := get(t, nilSrv, "/"); code != http.StatusServiceUnavailable {
		t.Fatalf("tenancy disabled = %d, want 503", code)
	}
}

func TestClustersHandler(t *testing.T) {
	st := &ClustersStatus{
		Cluster: "c0",
		Local: gossip.ClusterSummary{
			Cluster:        "c0",
			Version:        4,
			At:             30 * time.Second,
			Members:        6,
			AggAvailInBps:  2.4e6,
			AggAvailOutBps: 1.8e6,
			BoundaryBps:    1e8,
			Services:       []string{"encrypt", "filter"},
			Border:         overlay.NodeInfo{ID: overlay.ID{1}, Addr: transport.Addr("10.0.0.1:4000"), Cluster: "c0"},
		},
		Remotes: []gossip.ClusterSummary{{
			Cluster:        "c1",
			Version:        3,
			At:             28 * time.Second,
			Members:        6,
			AggAvailInBps:  3.1e6,
			AggAvailOutBps: 2.2e6,
			BoundaryBps:    1e8,
			Services:       []string{"transcode"},
			Border:         overlay.NodeInfo{ID: overlay.ID{2}, Addr: transport.Addr("10.0.1.1:4000"), Cluster: "c1"},
		}},
		Links: []federation.LinkUsage{
			{Link: "c0|c1", CapacityBps: 1e8, ReservedBps: 2e5, Credits: 2},
		},
		Handoffs: []federation.HandoffRef{{
			App:           "chain",
			Substream:     0,
			RemoteCluster: "c1",
			RemoteAddr:    transport.Addr("10.0.1.1:4000"),
			DebitBps:      1e5,
			LocalCredit:   7,
			RemoteCredit:  3,
		}},
		Stats: federation.Stats{QueriesSent: 2, HandoffsOK: 1, RemoteComposes: 0},
	}
	srv := httptest.NewServer(ClustersHandler(func() *ClustersStatus { return st }))
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("clusters = %d", code)
	}
	checkGolden(t, "clusters.golden", body)

	nilSrv := httptest.NewServer(ClustersHandler(func() *ClustersStatus { return nil }))
	defer nilSrv.Close()
	if code, _ := get(t, nilSrv, "/"); code != http.StatusServiceUnavailable {
		t.Fatalf("federation disabled = %d, want 503", code)
	}
}

func TestDataPlaneHandler(t *testing.T) {
	st := stream.DataPlaneStatus{
		Config:         stream.DataPlaneConfig{BatchUnits: 32, FlushInterval: 2 * time.Millisecond, Shards: 4},
		ShardQueueLens: []int{3, 0, 1, 0},
		OpenBatches:    2,
		OpenBatchUnits: 9,
		DropsQueueFull: 4,
		DropsUplink:    1,
		Throughputs: []stream.Throughput{
			{Req: "chain", Substream: 0, EmittedUnits: 100, EmittedBytes: 125000, ForwardedUnits: 95, ForwardedBytes: 118750, DroppedUnits: 5, DroppedBytes: 6250, DeliveredUnits: 95, DeliveredBytes: 118750},
			{Req: "mesh", Substream: 0, ForwardedUnits: 40, ForwardedBytes: 50000},
		},
		SchedPolicyName: "llf",
	}
	srv := httptest.NewServer(DataPlaneHandler(func() stream.DataPlaneStatus { return st }))
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("dataplane = %d", code)
	}
	checkGolden(t, "dataplane.golden", body)

	// The req filter keeps the selected application's throughputs only;
	// the engine-wide posture is unchanged.
	_, body = get(t, srv, "/?req=mesh")
	var filtered stream.DataPlaneStatus
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatalf("filtered body %q: %v", body, err)
	}
	if len(filtered.Throughputs) != 1 || filtered.Throughputs[0].Req != "mesh" {
		t.Fatalf("filtered throughputs = %+v", filtered.Throughputs)
	}
	if filtered.OpenBatches != 2 || filtered.DropsQueueFull != 4 {
		t.Fatalf("filtered posture = %+v", filtered)
	}
}

// TestAdminIntrospectionEndpoints checks a live node serves the decision
// journal, composition dump and the healthz control block out of the box,
// and reports unit tracing as disabled when no buffer was configured.
func TestAdminIntrospectionEndpoints(t *testing.T) {
	nodes := startCluster(t, 1, nil)
	adm, err := nodes[0].ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adm.Close() })

	code, body := adminGet(t, adm, "/debug/rasc/decisions")
	if code != http.StatusOK {
		t.Fatalf("/debug/rasc/decisions = %d, body %s", code, body)
	}
	var dr struct {
		Total     int64            `json:"total"`
		Decisions []trace.Decision `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(body), &dr); err != nil {
		t.Fatalf("decisions body %q: %v", body, err)
	}
	if dr.Total != 0 || len(dr.Decisions) != 0 {
		t.Fatalf("fresh node journal = %+v", dr)
	}

	if code, _ := adminGet(t, adm, "/debug/rasc/composition"); code != http.StatusOK {
		t.Fatalf("/debug/rasc/composition = %d", code)
	}
	code, body = adminGet(t, adm, "/debug/rasc/dataplane")
	if code != http.StatusOK {
		t.Fatalf("/debug/rasc/dataplane = %d, body %s", code, body)
	}
	var dp stream.DataPlaneStatus
	if err := json.Unmarshal([]byte(body), &dp); err != nil {
		t.Fatalf("dataplane body %q: %v", body, err)
	}
	if dp.Config.BatchUnits != 1 || dp.Config.Shards != 1 || len(dp.ShardQueueLens) != 1 {
		t.Fatalf("fresh node data plane = %+v", dp)
	}
	if code, _ := adminGet(t, adm, "/debug/rasc/trace?req=x"); code != http.StatusServiceUnavailable {
		t.Fatalf("/debug/rasc/trace without buffer = %d, want 503", code)
	}

	_, body = adminGet(t, adm, "/healthz")
	var st healthStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if st.Control == nil || st.Control.Decisions != 0 || st.Control.Inflight != 0 {
		t.Fatalf("healthz control block = %+v (body %s)", st.Control, body)
	}
}
