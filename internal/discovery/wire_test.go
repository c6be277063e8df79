package discovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/dht"
	"rasc.dev/rasc/internal/overlay"
	"rasc.dev/rasc/internal/simnet"
	"rasc.dev/rasc/internal/transport"
)

// recordBytes builds the host record by hand from the documented layout,
// so the tests do not check the encoder against itself.
func recordBytes(node overlay.NodeInfo, service string) []byte {
	b := []byte{byte(len(node.Addr))}
	b = append(b, node.Addr...)
	b = append(b, node.ID[:]...)
	b = append(b, byte(len(node.Cluster)))
	b = append(b, node.Cluster...)
	b = append(b, byte(len(service)))
	return append(b, service...)
}

func TestHostRecordRoundTripsAndNameLengths(t *testing.T) {
	long := strings.Repeat("s", 256)
	full := overlay.NodeInfo{ID: overlay.HashID("host"), Addr: "10.0.0.1:4000", Cluster: "c1"}
	edge := overlay.NodeInfo{ID: overlay.HashID("edge"), Addr: transport.Addr(long[:255]), Cluster: long[:255]}
	for _, tc := range []struct {
		node    overlay.NodeInfo
		service string
	}{
		{full, "transcode"},
		{overlay.NodeInfo{ID: full.ID, Addr: full.Addr}, "filter"}, // flat deployment: no cluster
		{overlay.NodeInfo{}, ""},
		{edge, long[:255]},
	} {
		rec, err := appendHostRecord(nil, tc.node, tc.service)
		if err != nil {
			t.Fatalf("%d-byte service: %v", len(tc.service), err)
		}
		if !bytes.Equal(rec, recordBytes(tc.node, tc.service)) {
			t.Fatalf("encoder departs from the documented layout:\n got %x\nwant %x", rec, recordBytes(tc.node, tc.service))
		}
		node, service, ok := parseHostRecord(rec)
		if !ok || node != tc.node || service != tc.service {
			t.Fatalf("round trip: ok=%v, %+v %q; want %+v %q", ok, node, service, tc.node, tc.service)
		}
		for cut := 0; cut < len(rec); cut++ {
			if _, _, ok := parseHostRecord(rec[:cut]); ok {
				t.Fatalf("accepted a record cut to %d of %d bytes", cut, len(rec))
			}
		}
		if _, _, ok := parseHostRecord(append(rec, 0)); ok {
			t.Fatal("accepted a trailing byte")
		}
	}
	longAddr, longCluster := full, full
	longAddr.Addr, longCluster.Cluster = transport.Addr(long), long
	for name, err := range map[string]error{
		"service": func() error { _, err := appendHostRecord(nil, full, long); return err }(),
		"address": func() error { _, err := appendHostRecord(nil, longAddr, "x"); return err }(),
		"cluster": func() error { _, err := appendHostRecord(nil, longCluster, "x"); return err }(),
	} {
		if !errors.Is(err, overlay.ErrDataNameTooLong) {
			t.Fatalf("256-byte %s: err = %v, want ErrDataNameTooLong", name, err)
		}
	}
}

// Announce refuses a service name no record can carry and announces
// nothing; a stored record that names another service, or does not parse,
// is skipped by Lookup.
func TestAnnounceRefusesLongNameAndLookupSkipsForeignRecords(t *testing.T) {
	c, dirs := newDirCluster(t, 8, 3)
	long := strings.Repeat("s", 256)
	if err := dirs[1].Announce(long); !errors.Is(err, overlay.ErrDataNameTooLong) {
		t.Fatalf("Announce of a 256-byte service: err = %v, want ErrDataNameTooLong", err)
	}
	if dirs[1].Offers(long) || len(dirs[1].LocalServices()) != 0 {
		t.Fatal("a refused service was recorded as announced")
	}
	if err := dirs[1].Announce(long[:255]); err != nil {
		t.Fatalf("Announce of a 255-byte service: %v", err)
	}
	if err := dirs[2].Announce("filter"); err != nil {
		t.Fatal(err)
	}
	// Under filter's key: a record for another service, and bytes that are
	// no record at all.
	other, _ := appendHostRecord(nil, c.Nodes[3].Info(), "transcode")
	for _, v := range [][]byte{other, []byte(`{"node":{},"service":"filter"}`), {}} {
		if err := dirs[3].store.Put(ServiceKey("filter"), v); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.Run()
	for svc, want := range map[string]overlay.ID{"filter": c.Nodes[2].ID(), long[:255]: c.Nodes[1].ID()} {
		var hosts []overlay.NodeInfo
		dirs[5].Lookup(svc, time.Second, func(h []overlay.NodeInfo, err error) { hosts = h })
		c.Sim.Run()
		if len(hosts) != 1 || hosts[0].ID != want {
			t.Fatalf("lookup of a %d-byte service: %+v, want only %s", len(svc), hosts, want)
		}
	}
}

// FuzzParseHostRecord feeds arbitrary bytes to the decoder every looked-up
// value comes through: it must never panic and whatever it accepts must
// re-encode to exactly the input.
func FuzzParseHostRecord(f *testing.F) {
	whole := recordBytes(overlay.NodeInfo{ID: overlay.HashID("host"), Addr: "10.0.0.1:4000", Cluster: "c1"}, "transcode")
	f.Add(whole)
	f.Add(whole[:len(whole)-4])
	f.Add(recordBytes(overlay.NodeInfo{}, ""))
	f.Add([]byte{})
	f.Add([]byte{255})
	f.Add([]byte(`{"node":{"id":"00","addr":"sim://1"},"service":"filter"}`)) // the parent's wire: rejected now
	f.Fuzz(func(t *testing.T, b []byte) {
		node, service, ok := parseHostRecord(b)
		if !ok {
			return
		}
		back, err := appendHostRecord(nil, node, service)
		if err != nil || !bytes.Equal(back, b) {
			t.Fatalf("accepted record does not re-encode to its input (%v): %+v %q", err, node, service)
		}
	})
}

// recorder wraps an endpoint and shows every message it sends to seen.
type recorder struct {
	transport.Endpoint
	seen func(transport.Message)
}

func (r recorder) Send(to transport.Addr, msg transport.Message) error {
	r.seen(msg)
	return r.Endpoint.Send(to, msg)
}

// Wire-size pin: the reply to a lookup of a service 16 hosts offer (the
// paper's replication degree), on the simulator's links
// (transport.Message.WireSize, nodes at sim://NN).
const maxLookupReplyWire = 800 // about 2900 as base64'd JSON records in a JSON envelope

func TestLookupReplyWireSize(t *testing.T) {
	var replies []int
	recording := false
	c := simnet.New(simnet.Options{N: 32, Seed: 8,
		WrapEndpoint: func(_ int, ep transport.Endpoint, _ clock.Clock) transport.Endpoint {
			return recorder{Endpoint: ep, seen: func(m transport.Message) {
				if recording && m.Type == "overlay-data" {
					replies = append(replies, m.WireSize())
				}
			}}
		}})
	dirs := make([]*Directory, len(c.Nodes))
	for i, node := range c.Nodes {
		dirs[i] = New(node, dht.New(node, c.Clock), c.Clock)
	}
	for i := 16; i < 32; i++ { // providers with two-digit addresses
		if err := dirs[i].Announce("transcode"); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.Run()
	recording = true
	var hosts []overlay.NodeInfo
	dirs[12].Lookup("transcode", time.Second, func(h []overlay.NodeInfo, err error) { hosts = h })
	c.Sim.Run()
	if len(hosts) != 16 || len(replies) != 1 || replies[0] > maxLookupReplyWire {
		t.Fatalf("%d hosts in %d replies of %v bytes on the wire; a 16-provider reply is pinned at most %d", len(hosts), len(replies), replies, maxLookupReplyWire)
	}
}

// The whole discovery path on the binary wire, against a digest taken from
// the same scenario at the last commit whose wire was JSON: 24 nodes join
// one after another (join, join reply, announce, announce ack), exchange
// leaf sets, publish 3 services each (routed puts, replicas), and every
// service is looked up from a node that does not offer it (routed get,
// direct reply). The leaf set every node ends with (which decides each
// key's root; which peer holds a contested routing-table slot turns on
// measured round-trip times and so on frame sizes) and every Lookup result
// are what they were.
func TestJoinAnnounceLookupMatchesJSONWire(t *testing.T) {
	const wantDigest = "120b4f210cb6a02444d2e7d9ac8da93accb2501fea4f98266e82aaa661b07ab4"
	c, dirs := newDirCluster(t, 24, 7)
	services := []string{"filter", "transcode", "encrypt", "annotate", "project", "aggregate"}
	for i, d := range dirs {
		for k := 0; k < 3; k++ {
			d.Announce(services[(i+2*k)%len(services)])
		}
	}
	c.Sim.Run()
	h := sha256.New()
	for _, n := range c.Nodes {
		fmt.Fprintf(h, "%s leaf set", n.ID())
		for _, p := range n.Leafset() {
			fmt.Fprintf(h, " %s@%s", p.ID, p.Addr)
		}
		fmt.Fprintln(h)
	}
	for i, svc := range services {
		var hosts []overlay.NodeInfo
		err := fmt.Errorf("lookup of %s never answered", svc)
		dirs[(i+1)%len(dirs)].Lookup(svc, time.Second, func(h []overlay.NodeInfo, e error) { hosts, err = h, e })
		c.Sim.Run()
		if err != nil || len(hosts) != 12 {
			t.Fatalf("%s: %d hosts, err = %v; want the 12 that announced it", svc, len(hosts), err)
		}
		fmt.Fprintf(h, "%s:", svc)
		for _, p := range hosts {
			fmt.Fprintf(h, " %s@%s", p.ID, p.Addr)
		}
		fmt.Fprintln(h)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Fatalf("leaf sets and lookup results digest to %s, want %s", got, wantDigest)
	}
}
