package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/gossip"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/telemetry"
	"rasc.dev/rasc/internal/tenant"
	"rasc.dev/rasc/internal/trace"
	"rasc.dev/rasc/internal/transport"
)

// AdminServer is the node's operational side port: /metrics (Prometheus
// text format), /healthz (overlay membership + listener liveness) and
// /debug/pprof. It runs on its own listener so operational traffic never
// competes with the protocol port.
type AdminServer struct {
	ln   net.Listener
	srv  *http.Server
	node *Node
}

// ServeAdmin starts the admin endpoint on addr ("host:port", port 0 picks
// a free port). Close the returned server when done; it is also shut down
// by its own goroutine exiting when the listener closes.
func (n *Node) ServeAdmin(addr string) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: admin listen %s: %w", addr, err)
	}
	a := &AdminServer{ln: ln, node: n}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.Handle("/debug/rasc/decisions", DecisionsHandler(n.Journal))
	mux.Handle("/debug/rasc/composition", CompositionHandler(func() []stream.AppComposition {
		var snap []stream.AppComposition
		n.DoSync(func() { snap = n.Engine.CompositionSnapshot() })
		return snap
	}))
	mux.Handle("/debug/rasc/trace", TraceHandler(func() *trace.Buffer { return n.Trace }))
	mux.Handle("/debug/rasc/dataplane", DataPlaneHandler(func() stream.DataPlaneStatus {
		var st stream.DataPlaneStatus
		n.DoSync(func() { st = n.Engine.DataPlaneStatus() })
		return st
	}))
	mux.Handle("/debug/rasc/tenants", TenantsHandler(func() *tenant.Gate { return n.Gate }))
	mux.Handle("/debug/rasc/clusters", ClustersHandler(func() *ClustersStatus {
		var st *ClustersStatus
		n.DoSync(func() {
			if n.Federation == nil {
				return
			}
			st = &ClustersStatus{
				Cluster:  n.Federation.Cluster(),
				Local:    n.Gossip.LocalSummary(),
				Remotes:  n.Gossip.Summaries(),
				Links:    n.Federation.Ledger().Usage(),
				Handoffs: n.Federation.Handoffs(),
				Stats:    n.Federation.Stats(),
			}
		})
		return st
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux}
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the admin endpoint's bound address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close shuts the admin listener down.
func (a *AdminServer) Close() error { return a.srv.Close() }

// handleMetrics refreshes scrape-time gauges on the actor loop, then
// writes the process registry.
func (a *AdminServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	a.node.DoSync(func() {
		a.node.Engine.ExportTelemetry()
		telActiveRequests.Set(float64(a.node.Engine.ActiveRequests()))
	})
	telemetry.Default().Handler().ServeHTTP(w, r)
}

// healthStatus is the /healthz response body.
type healthStatus struct {
	Joined   bool `json:"joined"`
	Listener bool `json:"listener"`
	// Peers is the number of overlay nodes this node currently knows.
	Peers int `json:"peers"`
	// Gossip summarizes the membership view (alive/suspect/dead counts
	// and the stalest held digest age); absent when gossip is disabled.
	Gossip *gossip.Summary `json:"gossip,omitempty"`
	// Transport summarizes the resilient pipeline's circuit breakers.
	Transport *transportHealth `json:"transport,omitempty"`
	// Control summarizes the adaptation control plane: per-application
	// last decision and gate posture. Absent until the engine has built a
	// controller (i.e. before adaptation is enabled or any event fires).
	Control *controlHealth `json:"control,omitempty"`
}

// controlHealth is the /healthz control-plane block.
type controlHealth struct {
	// Decisions counts adaptation decisions ever completed on this node.
	Decisions int64 `json:"decisions"`
	// Inflight is how many reallocations are currently running.
	Inflight int          `json:"inflight"`
	Apps     []appControl `json:"apps,omitempty"`
}

// appControl is one application's control-plane posture.
type appControl struct {
	App string `json:"app"`
	// LastTrigger/LastMode/LastOutcome describe the most recent completed
	// decision retained for the application; Converged reports whether
	// its delivered rate has recovered since.
	LastTrigger string `json:"lastTrigger,omitempty"`
	LastMode    string `json:"lastMode,omitempty"`
	LastOutcome string `json:"lastOutcome,omitempty"`
	Converged   bool   `json:"converged,omitempty"`
	// Inflight/Pending/Backoff/CooldownRemaining mirror the controller's
	// gate state: a reallocation running now, merged work waiting on a
	// timer or slot, the armed retry backoff, and the remaining
	// post-success cooldown.
	Inflight          bool          `json:"inflight,omitempty"`
	Pending           bool          `json:"pending,omitempty"`
	Backoff           time.Duration `json:"backoff,omitempty"`
	CooldownRemaining time.Duration `json:"cooldownRemaining,omitempty"`
}

// buildControlHealth merges the controller's live gate state with the
// journal's last decision per application. It must run on the actor loop
// (AppStatuses reads controller state).
func buildControlHealth(ctl *control.Controller, j *trace.Journal) *controlHealth {
	ch := &controlHealth{}
	byApp := make(map[string]*appControl)
	ordered := []string{}
	get := func(app string) *appControl {
		ac, ok := byApp[app]
		if !ok {
			ac = &appControl{App: app}
			byApp[app] = ac
			ordered = append(ordered, app)
		}
		return ac
	}
	if ctl != nil {
		for _, st := range ctl.AppStatuses() {
			ac := get(st.App)
			ac.Inflight = st.Inflight
			ac.Pending = st.Pending
			ac.Backoff = st.Backoff
			ac.CooldownRemaining = st.CooldownRemaining
			if st.Inflight {
				ch.Inflight++
			}
		}
	}
	if j != nil {
		ch.Decisions = j.Total()
		for app, d := range j.LastByApp() {
			ac := get(app)
			ac.LastTrigger = d.Trigger
			ac.LastMode = d.Mode
			ac.LastOutcome = d.Outcome
			ac.Converged = d.Converged
		}
	}
	sort.Strings(ordered)
	for _, app := range ordered {
		ch.Apps = append(ch.Apps, *byApp[app])
	}
	return ch
}

// transportHealth is the /healthz breaker summary: how many peers the
// pipeline tracks and which of them the breaker currently holds not-closed.
type transportHealth struct {
	Peers     int      `json:"peers"`
	SickPeers []string `json:"sickPeers,omitempty"`
}

// handleHealthz reports 200 once the node has joined the overlay and its
// protocol listener accepts connections, 503 otherwise.
func (a *AdminServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var st healthStatus
	a.node.DoSync(func() {
		st.Joined = a.node.Overlay.Joined()
		st.Peers = a.node.Overlay.NumKnown()
		if a.node.Gossip != nil {
			s := a.node.Gossip.Summary()
			st.Gossip = &s
		}
		if ctl := a.node.Engine.Controller(); ctl != nil || a.node.Journal != nil {
			st.Control = buildControlHealth(ctl, a.node.Journal)
		}
	})
	states := a.node.Transport.PeerStates()
	th := &transportHealth{Peers: len(states)}
	for addr, bs := range states {
		if bs != transport.BreakerClosed {
			th.SickPeers = append(th.SickPeers, fmt.Sprintf("%s (%s)", addr, bs))
		}
	}
	sort.Strings(th.SickPeers)
	st.Transport = th
	if c, err := net.DialTimeout("tcp", a.node.Addr(), 500*time.Millisecond); err == nil {
		st.Listener = true
		c.Close()
	}
	w.Header().Set("Content-Type", "application/json")
	if !st.Joined || !st.Listener {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}
