package tenant

import "sort"

// Per-host capacity ledger (Config.PerHostLedger): instead of one
// aggregate cluster scalar, the gate tracks a budget per host, fed from
// gossip membership and monitoring digests. Admission feasibility then
// answers "is there a host with headroom for this tenant's guaranteed
// floor" — an aggregate with headroom spread thin across saturated hosts
// is not placeable — and a host's death releases exactly that host's
// budget instead of an estimated aggregate decrement.

// hostState is one host's ledger row.
type hostState struct {
	capacityBps  float64
	committedBps float64
}

// HostBudget is one host's externally visible ledger row, served by
// /debug/rasc/tenants.
type HostBudget struct {
	Host        string  `json:"host"`
	CapacityBps float64 `json:"capacityBps"`
	// CommittedBps is the placed rate currently charged against the
	// host by admitted tenants (via SetPlacements).
	CommittedBps float64 `json:"committedBps"`
}

// PerHostLedger reports whether the gate was configured with per-host
// accounting (immutable after NewGate, so no lock needed).
func (g *Gate) PerHostLedger() bool { return g.cfg.PerHostLedger }

// UpsertHost registers a host budget (bits/sec) or rebases an existing
// one — the path a gossip join or monitoring digest takes. The aggregate
// budget becomes the sum of host budgets, and allocations re-settle.
func (g *Gate) UpsertHost(host string, capacityBps float64) {
	if capacityBps < 0 {
		capacityBps = 0
	}
	g.mu.Lock()
	if g.hosts == nil {
		g.hosts = make(map[string]*hostState)
	}
	h, ok := g.hosts[host]
	if !ok {
		h = &hostState{}
		g.hosts[host] = h
	}
	if ok && h.capacityBps == capacityBps {
		g.mu.Unlock()
		return // digest refresh with an unchanged budget: no re-settle
	}
	g.hostCapSum += capacityBps - h.capacityBps
	h.capacityBps = capacityBps
	g.capacity = g.hostCapSum
	n := &notifs{}
	g.rebalanceLocked(n, nil)
	g.refreshGaugesLocked()
	g.mu.Unlock()
	n.deliver()
}

// RemoveHost drops a host from the ledger — the gossip death path —
// releasing exactly its budget. Removing an unknown (or already removed)
// host is a no-op, so duplicate death notices release the budget exactly
// once.
func (g *Gate) RemoveHost(host string) {
	g.mu.Lock()
	h, ok := g.hosts[host]
	if !ok {
		g.mu.Unlock()
		return
	}
	delete(g.hosts, host)
	g.hostCapSum -= h.capacityBps
	if g.hostCapSum < 0 {
		g.hostCapSum = 0
	}
	g.capacity = g.hostCapSum
	n := &notifs{}
	g.rebalanceLocked(n, nil)
	g.refreshGaugesLocked()
	g.mu.Unlock()
	n.deliver()
}

// SetPlacements charges an admitted tenant's placed rate (host →
// bits/sec) against the ledger, replacing any previous charge. The gate
// takes ownership of the map. Placements on hosts the ledger does not
// track (or reported for tenants it no longer holds) are ignored; calls
// on a gate without a per-host ledger are no-ops.
func (g *Gate) SetPlacements(app string, perHost map[string]float64) {
	if !g.cfg.PerHostLedger {
		return
	}
	g.mu.Lock()
	t, ok := g.admitted[app]
	if !ok {
		g.mu.Unlock()
		return
	}
	g.uncommitPlacementsLocked(t)
	t.placedBps = perHost
	for host, bps := range perHost {
		if h := g.hosts[host]; h != nil {
			h.committedBps += bps
		}
	}
	g.mu.Unlock()
}

// uncommitPlacementsLocked releases a tenant's committed host budget
// (hosts that died since the charge are skipped — their ledger rows are
// gone).
func (g *Gate) uncommitPlacementsLocked(t *tenantState) {
	for host, bps := range t.placedBps {
		if h := g.hosts[host]; h != nil {
			h.committedBps -= bps
			if h.committedBps < 0 {
				h.committedBps = 0
			}
		}
	}
	t.placedBps = nil
}

// hostProbeLocked is the per-host feasibility probe run before an
// admission: with a ledger armed, some host's uncommitted budget must
// cover the candidate's guaranteed floor.
func (g *Gate) hostProbeLocked(demandBps float64) (string, bool) {
	if !g.cfg.PerHostLedger || len(g.hosts) == 0 {
		return "", true
	}
	need := g.cfg.MinShareFraction * demandBps
	for _, h := range g.hosts {
		if h.capacityBps-h.committedBps+1e-9 >= need {
			return "", true
		}
	}
	return "no host with placement headroom", false
}

// Hosts returns the ledger rows sorted by host id (empty without a
// per-host ledger).
func (g *Gate) Hosts() []HostBudget {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.hosts) == 0 {
		return nil
	}
	out := make([]HostBudget, 0, len(g.hosts))
	for host, h := range g.hosts {
		out = append(out, HostBudget{Host: host, CapacityBps: h.capacityBps, CommittedBps: h.committedBps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}
