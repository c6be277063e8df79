// Package dht provides a replicated multi-value store on top of the Pastry
// overlay, playing the role FreePastry's object storage plays for RASC: a
// key (the SHA-1 of a service name) maps to the set of values (host
// records) published under it.
package dht

import (
	"encoding/binary"
	"errors"
	"time"

	"rasc.dev/rasc/internal/clock"
	"rasc.dev/rasc/internal/overlay"
)

const appName = "dht"

// DefaultReplication is how many leaf-set neighbors receive a copy of each
// stored value.
const DefaultReplication = 4

// ErrTimeout is reported by Get when the key's root does not answer.
var ErrTimeout = errors.New("dht: lookup timed out")

// ErrValueTooLarge is returned by Put and Remove for a value the wire
// format's u16 length prefix cannot hold.
var ErrValueTooLarge = errors.New("dht: value longer than 65535 bytes")

const (
	opPut byte = 1 + iota
	opRemove
	opGet
	opReply
	opReplica
	opEnd // one past the last op
)

// flagRemove marks a replica message as a removal.
const flagRemove byte = 1

// message is the DHT wire format, carried in overlay route/direct bodies:
//
//	message := op:u8 flags:u8 key[16] reqID:u64 value values
//	value   := len:u16 bytes
//	values  := count:u16 value*
//
// Decoded values alias the frame's bytes.
type message struct {
	Op     byte
	Key    overlay.ID
	Value  []byte
	Values [][]byte
	ReqID  uint64
	Remove bool
}

// messageOverhead is the encoded size of a message with no value bytes.
const messageOverhead = 2 + overlay.IDBytes + 8 + 2 + 2

// appendMessage encodes m. The caller has checked that Value fits its
// length prefix; a value set is cut to what its u16 count holds.
func appendMessage(buf []byte, m message) []byte {
	var flags byte
	if m.Remove {
		flags |= flagRemove
	}
	values := m.Values[:min(len(m.Values), 0xffff)]
	buf = append(buf, m.Op, flags)
	buf = append(buf, m.Key[:]...)
	buf = binary.BigEndian.AppendUint64(buf, m.ReqID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Value)))
	buf = append(buf, m.Value...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(values)))
	for _, v := range values {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// decodeMessage decodes a DHT message. It rejects unknown ops and flags,
// length prefixes that run past the end and trailing bytes, and checks the
// value count against the bytes that remain before allocating for it.
func decodeMessage(b []byte) (m message, ok bool) {
	if len(b) < messageOverhead || b[0] < opPut || b[0] >= opEnd || b[1]&^flagRemove != 0 {
		return message{}, false
	}
	m.Op, m.Remove = b[0], b[1]&flagRemove != 0
	copy(m.Key[:], b[2:])
	m.ReqID = binary.BigEndian.Uint64(b[2+overlay.IDBytes:])
	b = b[2+overlay.IDBytes+8:]
	if m.Value, b, ok = readValue(b); !ok || len(b) < 2 {
		return message{}, false
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if count*2 > len(b) {
		return message{}, false
	}
	m.Values = make([][]byte, count)
	for i := range m.Values {
		if m.Values[i], b, ok = readValue(b); !ok {
			return message{}, false
		}
	}
	return m, len(b) == 0
}

// readValue reads one length-prefixed value from the front of b.
func readValue(b []byte) (v, rest []byte, ok bool) {
	if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	return b[2 : 2+n], b[2+n:], true
}

type pendingGet struct {
	cb     func([][]byte, error)
	cancel func()
}

// Store is one node's participation in the DHT.
type Store struct {
	node    *overlay.Node
	clk     clock.Clock
	data    map[overlay.ID]map[string]time.Duration // value -> expiry (0 = never)
	pending map[uint64]*pendingGet
	nextReq uint64

	// Replication is the number of leaf-set members that receive copies
	// of values this node stores as root.
	Replication int
	// TTL, when positive, expires stored values that are not re-Put
	// within it. Publishers keep their registrations alive with
	// periodic refresh (discovery.Directory.StartRefresh); entries of
	// departed publishers then age out instead of lingering forever.
	TTL time.Duration
}

// New attaches a DHT store to an overlay node.
func New(node *overlay.Node, clk clock.Clock) *Store {
	s := &Store{
		node:        node,
		clk:         clk,
		data:        make(map[overlay.ID]map[string]time.Duration),
		pending:     make(map[uint64]*pendingGet),
		Replication: DefaultReplication,
	}
	node.Register(appName, s.deliver)
	return s
}

// Put publishes value under key. The value is routed to the key's root and
// replicated on the root's leaf set. Duplicate values are idempotent. The
// error is a value or a node name the wire cannot carry (ErrValueTooLarge,
// overlay.ErrDataNameTooLong); nothing was sent.
func (s *Store) Put(key overlay.ID, value []byte) error {
	return s.route(message{Op: opPut, Key: key, Value: value})
}

// Remove withdraws value from key's value set; it fails as Put does.
func (s *Store) Remove(key overlay.ID, value []byte) error {
	return s.route(message{Op: opRemove, Key: key, Value: value})
}

// Get fetches the value set for key. cb runs exactly once, either with the
// values (possibly empty) or with an error; a lookup that cannot be framed
// (overlay.ErrDataNameTooLong) fails before Get returns.
func (s *Store) Get(key overlay.ID, timeout time.Duration, cb func([][]byte, error)) {
	s.nextReq++
	id := s.nextReq
	p := &pendingGet{cb: cb}
	p.cancel = s.clk.After(timeout, func() {
		if _, ok := s.pending[id]; ok {
			delete(s.pending, id)
			// The key's route is suspect: probe-and-prune the local
			// next hop so a retry can take a live path.
			s.node.HealRoute(key, timeout/2+time.Millisecond, nil)
			cb(nil, ErrTimeout)
		}
	})
	s.pending[id] = p
	if err := s.route(message{Op: opGet, Key: key, ReqID: id}); err != nil {
		delete(s.pending, id)
		p.cancel()
		cb(nil, err)
	}
}

// LocalValues returns the live (unexpired) values this node stores for key
// (diagnostics and tests).
func (s *Store) LocalValues(key overlay.ID) [][]byte {
	now := s.clk.Now()
	var out [][]byte
	for v, expiry := range s.data[key] {
		if expiry != 0 && expiry <= now {
			continue
		}
		out = append(out, []byte(v))
	}
	return out
}

// pruneExpired removes aged-out values for key.
func (s *Store) pruneExpired(key overlay.ID) {
	set, ok := s.data[key]
	if !ok {
		return
	}
	now := s.clk.Now()
	for v, expiry := range set {
		if expiry != 0 && expiry <= now {
			delete(set, v)
		}
	}
	if len(set) == 0 {
		delete(s.data, key)
	}
}

// LocalKeys returns how many keys this node stores.
func (s *Store) LocalKeys() int { return len(s.data) }

func (s *Store) route(m message) error {
	if len(m.Value) > 0xffff {
		return ErrValueTooLarge
	}
	return s.node.Route(m.Key, appName, appendMessage(make([]byte, 0, messageOverhead+len(m.Value)), m))
}

func (s *Store) deliver(_ overlay.ID, src overlay.NodeInfo, body []byte) {
	m, ok := decodeMessage(body)
	if !ok {
		return
	}
	switch m.Op {
	case opPut:
		s.store(m.Key, m.Value)
		s.replicate(m.Key, m.Value, false)
	case opRemove:
		s.erase(m.Key, m.Value)
		s.replicate(m.Key, m.Value, true)
	case opReplica:
		if m.Remove {
			s.erase(m.Key, m.Value)
		} else {
			s.store(m.Key, m.Value)
		}
	case opGet:
		reply := message{Op: opReply, Key: m.Key, ReqID: m.ReqID, Values: s.LocalValues(m.Key)}
		// Best-effort: a lost reply is the requester's timeout.
		_ = s.node.Direct(src.Addr, appName, appendMessage(nil, reply))
	case opReply:
		p, ok := s.pending[m.ReqID]
		if !ok {
			return
		}
		delete(s.pending, m.ReqID)
		p.cancel()
		p.cb(m.Values, nil)
	}
}

func (s *Store) store(key overlay.ID, value []byte) {
	s.pruneExpired(key)
	set, ok := s.data[key]
	if !ok {
		set = make(map[string]time.Duration)
		s.data[key] = set
	}
	var expiry time.Duration
	if s.TTL > 0 {
		expiry = s.clk.Now() + s.TTL
	}
	set[string(value)] = expiry
}

func (s *Store) erase(key overlay.ID, value []byte) {
	if set, ok := s.data[key]; ok {
		delete(set, string(value))
		if len(set) == 0 {
			delete(s.data, key)
		}
	}
}

// replicate pushes a stored (or removed) value to the nearest leaf-set
// members so the data survives the root and remains findable after small
// ring changes.
func (s *Store) replicate(key overlay.ID, value []byte, remove bool) {
	b := appendMessage(nil, message{Op: opReplica, Key: key, Value: value, Remove: remove})
	for i, peer := range s.node.Leafset() {
		if i >= s.Replication {
			break
		}
		// Best-effort: the publisher's next refresh repairs a lost replica.
		_ = s.node.Direct(peer.Addr, appName, b)
	}
}
