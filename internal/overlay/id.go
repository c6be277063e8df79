// Package overlay implements a Pastry-style structured overlay network:
// 128-bit node identifiers, prefix-based routing with a routing table and a
// leaf set, a join protocol, and request/response messaging. It replaces
// the FreePastry library used by the RASC prototype.
package overlay

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
)

const (
	// IDBytes is the identifier length in bytes (128 bits, as in Pastry).
	IDBytes = 16
	// DigitBits is the bits per routing digit (b=4: hexadecimal digits).
	DigitBits = 4
	// NumDigits is the number of digits in an ID.
	NumDigits = IDBytes * 8 / DigitBits
	// DigitBase is the radix of a digit.
	DigitBase = 1 << DigitBits
)

// ID is a 128-bit overlay identifier, compared as a big-endian unsigned
// integer.
type ID [IDBytes]byte

// HashID derives an ID from arbitrary text via SHA-1, the scheme the paper
// uses for component IDs.
func HashID(s string) ID {
	sum := sha1.Sum([]byte(s))
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// RandomID draws a uniformly random ID from rng.
func RandomID(rng *rand.Rand) ID {
	var id ID
	for i := range id {
		id[i] = byte(rng.Intn(256))
	}
	return id
}

// ParseID decodes a 32-hex-digit string.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("overlay: bad ID %q: %v", s, err)
	}
	if len(b) != IDBytes {
		return id, fmt.Errorf("overlay: bad ID length %d", len(b))
	}
	copy(id[:], b)
	return id, nil
}

// String returns the ID as lowercase hex.
func (a ID) String() string { return hex.EncodeToString(a[:]) }

// MarshalText implements encoding.TextMarshaler so IDs embed cleanly in
// JSON messages.
func (a ID) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *ID) UnmarshalText(b []byte) error {
	id, err := ParseID(string(b))
	if err != nil {
		return err
	}
	*a = id
	return nil
}

// words splits the ID into its high and low 64-bit halves.
func (a ID) words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
}

// Cmp compares a and b as unsigned integers: -1, 0 or +1.
func (a ID) Cmp(b ID) int {
	ahi, alo := a.words()
	bhi, blo := b.words()
	switch {
	case ahi != bhi:
		if ahi < bhi {
			return -1
		}
		return 1
	case alo < blo:
		return -1
	case alo > blo:
		return 1
	}
	return 0
}

// Digit returns the i-th base-16 digit of the ID, most significant first.
func (a ID) Digit(i int) int {
	byteIdx := i / 2
	if i%2 == 0 {
		return int(a[byteIdx] >> 4)
	}
	return int(a[byteIdx] & 0x0f)
}

// CommonPrefixLen returns the number of leading digits a and b share.
func (a ID) CommonPrefixLen(b ID) int {
	for i := 0; i < IDBytes; i++ {
		if a[i] == b[i] {
			continue
		}
		if a[i]>>4 == b[i]>>4 {
			return 2*i + 1
		}
		return 2 * i
	}
	return NumDigits
}

// sub returns a-b mod 2^128.
func sub(a, b ID) ID {
	ahi, alo := a.words()
	bhi, blo := b.words()
	lo, borrow := bits.Sub64(alo, blo, 0)
	hi, _ := bits.Sub64(ahi, bhi, borrow)
	var out ID
	binary.BigEndian.PutUint64(out[:8], hi)
	binary.BigEndian.PutUint64(out[8:], lo)
	return out
}

// CWDist returns the clockwise ring distance from a to b, i.e. (b-a) mod
// 2^128.
func CWDist(a, b ID) ID { return sub(b, a) }

// RingDist returns the minimum of the clockwise and counter-clockwise
// distances between a and b on the identifier ring.
func RingDist(a, b ID) ID {
	cw := sub(b, a)
	ccw := sub(a, b)
	if cw.Cmp(ccw) <= 0 {
		return cw
	}
	return ccw
}

// Closer reports whether x is strictly closer to key than y on the ring.
// Ties break toward the numerically smaller candidate so every node agrees
// on a unique root for each key.
func Closer(key, x, y ID) bool {
	dx, dy := RingDist(key, x), RingDist(key, y)
	if c := dx.Cmp(dy); c != 0 {
		return c < 0
	}
	return x.Cmp(y) < 0
}
