package gossip

import (
	"encoding/json"
	"sort"
	"time"

	"rasc.dev/rasc/internal/overlay"
)

// The federation boundary protocol: full SWIM digests stay inside one
// cluster, and a small set of border peers periodically exchange compact
// ClusterSummary messages across cluster boundaries — aggregate headroom,
// boundary-link capacity and the exported service catalog. The exchange
// is push-pull (one round trip refreshes both sides), so a border node
// learns every remote cluster it is configured against within one
// SummaryInterval.

// appSummary is the overlay RPC application of the border exchange.
const appSummary = "gossip.summary"

// ClusterSummary is the compact cross-boundary view of one cluster: what
// a border peer advertises to its remote counterparts instead of the full
// membership.
type ClusterSummary struct {
	// Cluster names the summarized cluster.
	Cluster string `json:"cluster"`
	// Version orders summaries from the same border origin.
	Version uint64 `json:"v"`
	// At is the origin border's local clock at production time
	// (informational; cross-cluster clocks are not comparable).
	At time.Duration `json:"at"`
	// Members is the number of alive members in the cluster view.
	Members int `json:"members"`
	// AggAvailInBps and AggAvailOutBps sum the alive members' available
	// inbound/outbound bandwidth from their freshest digests — the
	// headroom a federation coordinator ranks remote candidates by.
	AggAvailInBps  float64 `json:"aggAvailInBps"`
	AggAvailOutBps float64 `json:"aggAvailOutBps"`
	// BoundaryBps is the boundary-link capacity the cluster advertises.
	BoundaryBps float64 `json:"boundaryBps,omitempty"`
	// Services is the union of the alive members' service offerings,
	// sorted — the cluster's exported catalog.
	Services []string `json:"services,omitempty"`
	// Border identifies the border peer that produced the summary;
	// hand-off handshakes are addressed to it.
	Border overlay.NodeInfo `json:"border"`
}

// Offers reports whether the summarized cluster exports service.
func (s ClusterSummary) Offers(service string) bool {
	for _, svc := range s.Services {
		if svc == service {
			return true
		}
	}
	return false
}

// remoteSummary is a held remote summary plus its local receipt time (the
// freshness clock TTL expiry runs on).
type remoteSummary struct {
	summary    ClusterSummary
	receivedAt time.Duration
}

// summaryMsg carries one summary in each direction of an exchange.
type summaryMsg struct {
	Summary ClusterSummary `json:"summary"`
}

// OnSummary registers a callback fired (on the protocol goroutine)
// whenever a remote cluster summary is received or refreshed.
func (g *Gossip) OnSummary(fn func(ClusterSummary)) { g.onSummary = append(g.onSummary, fn) }

// OnSummaryLost registers a callback fired when a remote cluster's
// summary expires (no refresh within SummaryTTL) — the signal behind the
// control plane's remote_candidate_lost event.
func (g *Gossip) OnSummaryLost(fn func(cluster string)) {
	g.onSummaryLost = append(g.onSummaryLost, fn)
}

// LocalSummary condenses the cluster-scoped view into the summary this
// node would advertise across the boundary.
func (g *Gossip) LocalSummary() ClusterSummary {
	g.summaryVersion++
	s := ClusterSummary{
		Cluster:     g.cfg.Cluster,
		Version:     g.summaryVersion,
		At:          g.clk.Now(),
		BoundaryBps: g.cfg.BoundaryBps,
		Border:      g.node.Info(),
	}
	// Sum in member-ID order: the float totals then repeat from run to
	// run, and so does the summary's size on the wire.
	ids := make([]overlay.ID, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Cmp(ids[j]) < 0 })
	services := map[string]bool{}
	for _, id := range ids {
		m := g.members[id]
		if m.State != StateAlive {
			continue
		}
		s.Members++
		if m.Digest.Version == 0 {
			continue
		}
		s.AggAvailInBps += m.Digest.Report.AvailIn()
		s.AggAvailOutBps += m.Digest.Report.AvailOut()
		for _, svc := range m.Digest.Services {
			services[svc] = true
		}
	}
	for svc := range services {
		s.Services = append(s.Services, svc)
	}
	sort.Strings(s.Services)
	return s
}

// Summaries returns the held remote cluster summaries, sorted by cluster
// name.
func (g *Gossip) Summaries() []ClusterSummary {
	out := make([]ClusterSummary, 0, len(g.summaries))
	for _, rs := range g.summaries {
		out = append(out, rs.summary)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cluster < out[j].Cluster })
	return out
}

// SummaryFor returns the held summary for one remote cluster.
func (g *Gossip) SummaryFor(cluster string) (ClusterSummary, bool) {
	if rs, ok := g.summaries[cluster]; ok {
		return rs.summary, true
	}
	return ClusterSummary{}, false
}

// summaryRound runs one border period: expire stale remote summaries,
// then push-pull a fresh exchange with every configured remote border.
func (g *Gossip) summaryRound() {
	g.expireSummaries()
	local := g.LocalSummary()
	body := g.encode(summaryMsg{Summary: local})
	for _, peer := range g.cfg.BorderPeers {
		if peer.Addr == "" || peer.ID == g.node.ID() {
			continue
		}
		g.node.Request(peer.Addr, appSummary, body, g.cfg.SummaryInterval/2, func(resp []byte, err error) {
			if err != nil {
				return
			}
			var m summaryMsg
			if json.Unmarshal(resp, &m) == nil {
				g.mergeSummary(m.Summary)
			}
		})
	}
}

// expireSummaries drops remote summaries older than SummaryTTL and tells
// the subscribers which clusters went dark.
func (g *Gossip) expireSummaries() {
	now := g.clk.Now()
	var lost []string
	for cluster, rs := range g.summaries {
		if now-rs.receivedAt > g.cfg.SummaryTTL {
			lost = append(lost, cluster)
		}
	}
	sort.Strings(lost)
	for _, cluster := range lost {
		delete(g.summaries, cluster)
		telSummariesHeld.Set(float64(len(g.summaries)))
		for _, fn := range g.onSummaryLost {
			fn(cluster)
		}
	}
}

// mergeSummary records a received remote summary, refreshing its TTL.
// Same-cluster summaries (echoes of our own) are ignored.
func (g *Gossip) mergeSummary(s ClusterSummary) {
	if s.Cluster == "" || s.Cluster == g.cfg.Cluster {
		return
	}
	held, ok := g.summaries[s.Cluster]
	// A newer version from the same border, or any summary from a
	// different border, wins; a stale duplicate only refreshes the TTL.
	if ok && held.summary.Border.ID == s.Border.ID && s.Version < held.summary.Version {
		held.receivedAt = g.clk.Now()
		return
	}
	g.summaries[s.Cluster] = &remoteSummary{summary: s, receivedAt: g.clk.Now()}
	telSummaryExchanges.Inc()
	telSummariesHeld.Set(float64(len(g.summaries)))
	for _, fn := range g.onSummary {
		fn(s)
	}
}

// onSummaryExchange answers a border push-pull: merge the caller's
// summary, reply with ours.
func (g *Gossip) onSummaryExchange(_ overlay.NodeInfo, body []byte, respond func([]byte, string)) {
	var m summaryMsg
	if err := json.Unmarshal(body, &m); err != nil {
		respond(nil, "gossip: bad summary: "+err.Error())
		return
	}
	if g.cfg.Cluster == "" {
		respond(nil, "gossip: not cluster-scoped")
		return
	}
	g.mergeSummary(m.Summary)
	respond(g.encode(summaryMsg{Summary: g.LocalSummary()}), "")
}
