// Package discovery implements RASC's distributed component discovery
// (§3.3 of the paper): service names hash to DHT keys under which provider
// host records are published, and a querying node retrieves the list of
// hosts offering a requested service.
package discovery

import (
	"encoding/json"
	"sort"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/dht"
	"rasc.dev/rasc/internal/overlay"
)

// ServiceKey maps a service name to its DHT key (the paper's SHA-1
// component ID).
func ServiceKey(service string) overlay.ID { return overlay.HashID("svc:" + service) }

// HostRecord is the value published under a service key.
type HostRecord struct {
	Node    overlay.NodeInfo `json:"node"`
	Service string           `json:"service"`
}

// View is a locally converged provider index — in practice the gossip
// membership view — consulted by Lookup before falling back to the DHT.
// Implementations return alive hosts announcing the service, sorted by ID.
type View interface {
	HostsFor(service string) []overlay.NodeInfo
}

// Directory is one node's view of the service registry.
type Directory struct {
	node    *overlay.Node
	store   *dht.Store
	clk     clock.Clock
	local   map[string]bool
	view    View
	refresh func() // cancels the running refresh loop
}

// New attaches a directory to an overlay node and its DHT store.
func New(node *overlay.Node, store *dht.Store, clk clock.Clock) *Directory {
	return &Directory{node: node, store: store, clk: clk, local: make(map[string]bool)}
}

// StartRefresh republishes this node's announcements every interval, so
// registrations migrate to new key roots as the ring changes (nodes that
// joined after the original Announce). Call StopRefresh to end the loop;
// deterministic simulations should leave refresh off so the event queue
// can drain.
func (d *Directory) StartRefresh(interval time.Duration) {
	d.StopRefresh()
	var tick func()
	tick = func() {
		for svc := range d.local {
			d.store.Put(ServiceKey(svc), d.record(svc))
		}
		d.refresh = d.clk.After(interval, tick)
	}
	d.refresh = d.clk.After(interval, tick)
}

// StopRefresh cancels a running refresh loop.
func (d *Directory) StopRefresh() {
	if d.refresh != nil {
		d.refresh()
		d.refresh = nil
	}
}

// Announce publishes this node as a provider of service.
func (d *Directory) Announce(service string) {
	d.local[service] = true
	d.store.Put(ServiceKey(service), d.record(service))
}

// Withdraw removes this node from the provider set of service.
func (d *Directory) Withdraw(service string) {
	delete(d.local, service)
	d.store.Remove(ServiceKey(service), d.record(service))
}

// Offers reports whether this node announced the service.
func (d *Directory) Offers(service string) bool { return d.local[service] }

// LocalServices lists the services this node announced, sorted.
func (d *Directory) LocalServices() []string {
	out := make([]string, 0, len(d.local))
	for s := range d.local {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (d *Directory) record(service string) []byte {
	b, _ := json.Marshal(HostRecord{Node: d.node.Info(), Service: service})
	return b
}

// SetView installs a converged local view as the primary lookup source.
// The DHT remains the bootstrap and fallback path: it answers whenever the
// view is absent or has no providers for the service yet (e.g. before
// digests have disseminated). Pass nil to restore pure-DHT lookups.
func (d *Directory) SetView(v View) { d.view = v }

// Lookup resolves the provider set for service. The callback runs exactly
// once with the hosts sorted by ID for determinism. With a view installed
// (SetView) the answer comes synchronously from the local converged state
// — no DHT round trips — whenever the view knows at least one provider.
func (d *Directory) Lookup(service string, timeout time.Duration, cb func([]overlay.NodeInfo, error)) {
	if d.view != nil {
		if hosts := d.view.HostsFor(service); len(hosts) > 0 {
			cb(hosts, nil)
			return
		}
	}
	d.store.Get(ServiceKey(service), timeout, func(values [][]byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		var hosts []overlay.NodeInfo
		for _, v := range values {
			var rec HostRecord
			if json.Unmarshal(v, &rec) != nil || rec.Service != service {
				continue
			}
			hosts = append(hosts, rec.Node)
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i].ID.Cmp(hosts[j].ID) < 0 })
		cb(hosts, nil)
	})
}

// LookupMany resolves several services and calls cb once all lookups have
// finished. Missing services appear with empty host lists; the first error
// (if any) is reported. The engine no longer calls it (stream.gatherInput
// acts on each Lookup as it lands); the benchmark suite's probes do.
func (d *Directory) LookupMany(services []string, timeout time.Duration, cb func(map[string][]overlay.NodeInfo, error)) {
	results := make(map[string][]overlay.NodeInfo, len(services))
	remaining := len(services)
	if remaining == 0 {
		cb(results, nil)
		return
	}
	var firstErr error
	for _, svc := range services {
		svc := svc
		d.Lookup(svc, timeout, func(hosts []overlay.NodeInfo, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			results[svc] = hosts
			remaining--
			if remaining == 0 {
				cb(results, firstErr)
			}
		})
	}
}
