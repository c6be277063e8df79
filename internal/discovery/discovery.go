// Package discovery implements RASC's distributed component discovery
// (§3.3 of the paper): service names hash to DHT keys under which provider
// host records are published, and a querying node retrieves the list of
// hosts offering a requested service.
package discovery

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/dht"
	"rasc.dev/rasc/internal/overlay"
)

// ServiceKey maps a service name to its DHT key (the paper's SHA-1
// component ID).
func ServiceKey(service string) overlay.ID { return overlay.HashID("svc:" + service) }

// appendHostRecord encodes the value published under a service key: the
// provider and the service it offers.
//
//	record := nodeinfo serviceLen:u8 service
//
// nodeinfo is overlay.AppendNodeInfo's. A service, address or cluster name
// longer than 255 bytes is refused with overlay.ErrDataNameTooLong.
func appendHostRecord(buf []byte, node overlay.NodeInfo, service string) ([]byte, error) {
	if len(service) > 255 {
		return nil, overlay.ErrDataNameTooLong
	}
	buf, err := overlay.AppendNodeInfo(buf, node)
	if err != nil {
		return nil, err
	}
	buf = append(buf, byte(len(service)))
	return append(buf, service...), nil
}

// parseHostRecord decodes a host record, rejecting a length prefix that
// runs past the end and trailing bytes.
func parseHostRecord(b []byte) (node overlay.NodeInfo, service string, ok bool) {
	node, b, ok = overlay.ParseNodeInfo(b)
	if !ok || len(b) < 1 || len(b) != 1+int(b[0]) {
		return overlay.NodeInfo{}, "", false
	}
	return node, string(b[1:]), true
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
	refresh clock.Timer // the running refresh loop's next round
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
			_ = d.publish(svc) // Announce has published this same record once already
		}
		d.refresh = d.clk.After(interval, tick)
	}
	d.refresh = d.clk.After(interval, tick)
}

// StopRefresh cancels a running refresh loop.
func (d *Directory) StopRefresh() { d.refresh.Stop() }

// Announce publishes this node as a provider of service. A service name
// (or a node identity) the host record cannot carry is refused with
// overlay.ErrDataNameTooLong and nothing is announced.
func (d *Directory) Announce(service string) error {
	if err := d.publish(service); err != nil {
		return err
	}
	d.local[service] = true
	return nil
}

func (d *Directory) publish(service string) error {
	rec, err := appendHostRecord(nil, d.node.Info(), service)
	if err != nil {
		return err
	}
	return d.store.Put(ServiceKey(service), rec)
}

// Withdraw removes this node from the provider set of service.
func (d *Directory) Withdraw(service string) {
	delete(d.local, service)
	// A record Announce could not have published has nothing to remove.
	if rec, err := appendHostRecord(nil, d.node.Info(), service); err == nil {
		_ = d.store.Remove(ServiceKey(service), rec)
	}
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

// SetView installs a converged local view as the primary lookup source.
// The DHT remains the bootstrap and fallback path: it answers whenever the
// view is absent or has no providers for the service yet (e.g. before
// digests have disseminated). Pass nil to restore pure-DHT lookups.
func (d *Directory) SetView(v View) { d.view = v }

// Lookup resolves the provider set for service. The callback runs exactly
// once with the hosts sorted by ID for determinism, each host once. With a
// view installed (SetView) the answer comes synchronously from the local
// converged state — no DHT round trips — whenever the view knows at least
// one provider.
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
		hosts := make([]overlay.NodeInfo, 0, len(values))
		for _, v := range values {
			// A record that does not parse, or that names another
			// service, is skipped.
			if node, svc, ok := parseHostRecord(v); ok && svc == service {
				hosts = append(hosts, node)
			}
		}
		// Stored records are distinct, but a host that re-announced
		// under a new address has two until the old one expires: keep
		// the one with the lowest address, so a result names each host
		// once and its ID order is total.
		slices.SortFunc(hosts, func(a, b overlay.NodeInfo) int {
			if c := a.ID.Cmp(b.ID); c != 0 {
				return c
			}
			return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Cluster, b.Cluster))
		})
		cb(slices.CompactFunc(hosts, func(a, b overlay.NodeInfo) bool { return a.ID == b.ID }), nil)
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
