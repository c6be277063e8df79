package live

import (
	"encoding/json"
	"net/http"
	"strconv"

	"rasc.dev/rasc/internal/federation"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
)

// The /debug/rasc/* handlers are standalone http.Handlers so deployments
// other than a live node — simulations under httptest, embedders of the
// rasc facade — can serve the same introspection surface over their own
// journals and buffers.

// decisionsResponse is the JSON body of /debug/rasc/decisions.
type decisionsResponse struct {
	// Total counts decisions ever completed; Evicted how many the ring
	// has since overwritten. Decisions is the retained window,
	// oldest-first.
	Total     int64            `json:"total"`
	Evicted   int64            `json:"evicted"`
	Decisions []trace.Decision `json:"decisions"`
}

// DecisionsHandler serves a decision journal: indented JSON by default,
// readable text with ?format=text, optionally filtered to one application
// with ?app=.
func DecisionsHandler(j *trace.Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if j == nil {
			http.Error(w, "decision journal disabled", http.StatusServiceUnavailable)
			return
		}
		ds := j.Decisions()
		if app := r.URL.Query().Get("app"); app != "" {
			ds = filter(ds, func(d trace.Decision) bool { return d.App == app })
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write([]byte(trace.FormatDecisions(ds)))
			return
		}
		writeJSON(w, decisionsResponse{Total: j.Total(), Evicted: j.Evicted(), Decisions: ds})
	})
}

// CompositionHandler serves the live execution graphs of every origin
// application as indented JSON. snapshot runs per request; wire it through
// the node's actor loop.
func CompositionHandler(snapshot func() []stream.AppComposition) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, snapshot())
	})
}

// TraceHandler serves the per-unit event buffer: ?req= and ?substream=
// select a stream; with ?seq= it renders that unit's timeline as text,
// without it the per-hop mean latencies as JSON. buffer runs per request
// and may return nil when tracing is off.
func TraceHandler(buffer func() *trace.Buffer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := buffer()
		if b == nil {
			http.Error(w, "unit tracing disabled", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query()
		req := q.Get("req")
		if req == "" {
			http.Error(w, "missing req parameter", http.StatusBadRequest)
			return
		}
		substream, _ := strconv.Atoi(q.Get("substream"))
		if seqStr := q.Get("seq"); seqStr != "" {
			seq, err := strconv.ParseInt(seqStr, 10, 64)
			if err != nil {
				http.Error(w, "bad seq parameter", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write([]byte(trace.FormatTimeline(b.Timeline(req, substream, seq))))
			return
		}
		type hop struct {
			Stage int    `json:"stage"`
			Count int    `json:"count"`
			Mean  string `json:"mean"`
		}
		lats := b.StageLatencies(req, substream)
		hops := make([]hop, 0, len(lats))
		for _, l := range lats {
			hops = append(hops, hop{Stage: l.Stage, Count: l.Count, Mean: l.Mean.String()})
		}
		writeJSON(w, hops)
	})
}

// DataPlaneHandler serves the engine's data-plane posture — effective
// batching/sharding configuration, per-shard queue depths, open batch
// state, drop counters and per-substream throughput snapshots — as
// indented JSON, optionally filtered to one request with ?req=. status
// runs per request; wire it through the node's actor loop.
func DataPlaneHandler(status func() stream.DataPlaneStatus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := status()
		if req := r.URL.Query().Get("req"); req != "" {
			st.Throughputs = filter(st.Throughputs, func(t stream.Throughput) bool { return t.Req == req })
		}
		writeJSON(w, st)
	})
}

// tenantsResponse is the JSON body of /debug/rasc/tenants.
type tenantsResponse struct {
	// Totals is the gate's aggregate posture; Tenants every tracked
	// application — admitted ones first (sorted by ID), then the
	// admission queue in promotion order.
	Totals  tenant.Totals   `json:"totals"`
	Tenants []tenant.Status `json:"tenants"`
}

// TenantsHandler serves the admission gate's posture as indented JSON,
// optionally filtered to one application with ?app=. gate runs per
// request and may return nil when tenancy is off.
func TenantsHandler(gate func() *tenant.Gate) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := gate()
		if g == nil {
			http.Error(w, "tenancy disabled", http.StatusServiceUnavailable)
			return
		}
		ts := g.Snapshot()
		if app := r.URL.Query().Get("app"); app != "" {
			ts = filter(ts, func(t tenant.Status) bool { return t.App == app })
		}
		writeJSON(w, tenantsResponse{Totals: g.Totals(), Tenants: ts})
	})
}

// ClustersStatus is the JSON body of /debug/rasc/clusters: one node's
// federation posture — its own cluster summary, the remote summaries it
// holds, boundary-link accounting and committed cross-cluster hand-offs.
type ClustersStatus struct {
	Cluster string `json:"cluster"`
	// Local is the summary this node would advertise across a boundary.
	Local gossip.ClusterSummary `json:"local"`
	// Remotes are the fresh (within TTL) remote cluster summaries held.
	Remotes []gossip.ClusterSummary `json:"remotes,omitempty"`
	// Links is the boundary ledger's per-link credit/debit accounting.
	Links []federation.LinkUsage `json:"links,omitempty"`
	// Handoffs are this node's committed cross-cluster hand-offs.
	Handoffs []federation.HandoffRef `json:"handoffs,omitempty"`
	Stats    federation.Stats        `json:"stats"`
}

// ClustersHandler serves a node's federation posture as indented JSON.
// status runs per request (wire it through the node's actor loop) and may
// return nil when federation is off.
func ClustersHandler(status func() *ClustersStatus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		st := status()
		if st == nil {
			http.Error(w, "federation disabled", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, st)
	})
}

// filter keeps the elements of xs that match, in place and in order (the
// ?app= and ?req= selections).
func filter[T any](xs []T, match func(T) bool) []T {
	kept := xs[:0]
	for _, x := range xs {
		if match(x) {
			kept = append(kept, x)
		}
	}
	return kept
}

// writeJSON writes v as indented JSON (these are debugging endpoints read
// by humans and golden tests; compactness does not matter).
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
