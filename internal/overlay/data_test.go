package overlay

import (
	"errors"
	"strings"
	"testing"
)

// nodeInfoBytes builds the wire form of a node reference by hand, so the
// tests do not check AppendNodeInfo against itself.
func nodeInfoBytes(info NodeInfo) []byte {
	b := []byte{byte(len(info.Addr))}
	b = append(b, info.Addr...)
	b = append(b, info.ID[:]...)
	b = append(b, byte(len(info.Cluster)))
	return append(b, info.Cluster...)
}

// dataEnvelope builds the data envelope (shared header, then body) by hand.
func dataEnvelope(app string, src NodeInfo, body []byte) []byte {
	b := []byte{byte(len(app))}
	b = append(b, app...)
	b = append(b, nodeInfoBytes(src)...)
	return append(b, body...)
}

func TestDirectDataPaddedDelivers(t *testing.T) {
	c := newCluster(t, 2, 1)
	a, b := c.nodes[0], c.nodes[1]
	var gotFrom NodeInfo
	var gotBody string
	b.Register("data", func(_ ID, from NodeInfo, body []byte) { gotFrom, gotBody = from, string(body) })
	if err := a.DirectDataPadded(b.Addr(), "data", []byte("payload"), 100); err != nil {
		t.Fatal(err)
	}
	c.sim.Run()
	if gotBody != "payload" || gotFrom != a.Info() {
		t.Fatalf("handler saw %q from %+v, want %q from %+v", gotBody, gotFrom, "payload", a.Info())
	}
}

// A name the u8 length prefix cannot hold is refused with a typed error,
// not sent in some other envelope.
func TestDirectDataPaddedRejectsLongNames(t *testing.T) {
	c := newCluster(t, 2, 1)
	a, b := c.nodes[0], c.nodes[1]
	delivered := false
	app := strings.Repeat("a", 256)
	b.Register(app, func(ID, NodeInfo, []byte) { delivered = true })
	if err := a.DirectDataPadded(b.Addr(), app, []byte("x"), 0); !errors.Is(err, ErrDataNameTooLong) {
		t.Fatalf("256-byte app name: err = %v, want ErrDataNameTooLong", err)
	}
	c.sim.Run()
	if delivered {
		t.Fatal("a refused send was delivered")
	}
	if err := a.DirectDataPadded(b.Addr(), app[:255], []byte("x"), 0); err != nil {
		t.Fatalf("255-byte app name: %v", err)
	}
}
