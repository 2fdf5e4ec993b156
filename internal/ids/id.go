// Package ids implements the 128-bit circular identifier space used by
// Totoro's locality-aware P2P multi-ring overlay (paper §4.2).
//
// Every edge node and every FL application is named by a 128-bit ID drawn
// from a circular space [0, 2^128). IDs are compared, subtracted, and split
// into base-2^b digits for Pastry-style prefix routing, and into an m-bit
// zone prefix plus (128-m)-bit suffix for the two-level multi-ring routing
// tables.
package ids

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
)

// Bits is the width of the identifier space.
const Bits = 128

// ID is a 128-bit identifier on the Totoro ring. The zero value is the ID 0.
type ID struct {
	Hi, Lo uint64
}

// FromBytes builds an ID from the first 16 bytes of p (big endian).
// Shorter slices are zero-padded on the right.
func FromBytes(p []byte) ID {
	var buf [16]byte
	copy(buf[:], p)
	return ID{
		Hi: binary.BigEndian.Uint64(buf[0:8]),
		Lo: binary.BigEndian.Uint64(buf[8:16]),
	}
}

// Bytes returns the big-endian 16-byte representation of d.
func (d ID) Bytes() [16]byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], d.Hi)
	binary.BigEndian.PutUint64(buf[8:16], d.Lo)
	return buf
}

// Hash derives an ID from arbitrary text using SHA-1, exactly as the paper
// derives AppId = hash("FL application") (§4.3 step a). SHA-1 yields a
// uniform distribution of IDs over the ring, which is what guarantees that
// rendezvous roots of different applications land on different nodes.
func Hash(parts ...string) ID {
	h := sha1.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return FromBytes(h.Sum(nil))
}

// Random returns a uniformly random ID drawn from rng.
func Random(rng *rand.Rand) ID {
	return ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
}

// String renders the ID as 32 hex digits.
func (d ID) String() string {
	var buf [32]byte
	putHex(buf[:16], d.Hi)
	putHex(buf[16:], d.Lo)
	return string(buf[:])
}

// Short renders the leading 8 hex digits, for logs.
func (d ID) Short() string {
	var buf [8]byte
	putHex(buf[:], d.Hi>>32)
	return string(buf[:])
}

// putHex fills dst with the low 4·len(dst) bits of v as lower-case hex,
// zero-padded.
func putHex(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = "0123456789abcdef"[v&15]
		v >>= 4
	}
}

// Cmp returns -1, 0, or +1 comparing d and o as unsigned 128-bit integers.
func (d ID) Cmp(o ID) int {
	switch {
	case d.Hi < o.Hi:
		return -1
	case d.Hi > o.Hi:
		return 1
	case d.Lo < o.Lo:
		return -1
	case d.Lo > o.Lo:
		return 1
	}
	return 0
}

// Less reports whether d < o as unsigned 128-bit integers.
func (d ID) Less(o ID) bool { return d.Cmp(o) < 0 }

// IsZero reports whether d is the zero ID.
func (d ID) IsZero() bool { return d.Hi == 0 && d.Lo == 0 }

// Add returns d + o mod 2^128.
func (d ID) Add(o ID) ID {
	lo := d.Lo + o.Lo
	carry := uint64(0)
	if lo < d.Lo {
		carry = 1
	}
	return ID{Hi: d.Hi + o.Hi + carry, Lo: lo}
}

// Sub returns d - o mod 2^128.
func (d ID) Sub(o ID) ID {
	lo := d.Lo - o.Lo
	borrow := uint64(0)
	if d.Lo < o.Lo {
		borrow = 1
	}
	return ID{Hi: d.Hi - o.Hi - borrow, Lo: lo}
}

// CWDist returns the clockwise (increasing-ID) distance from d to o on the
// ring, i.e. (o - d) mod 2^128.
func CWDist(d, o ID) ID { return o.Sub(d) }

// Dist returns the minimal circular distance between d and o:
// min((o-d) mod 2^128, (d-o) mod 2^128).
func Dist(d, o ID) ID {
	cw := o.Sub(d)
	ccw := d.Sub(o)
	if cw.Less(ccw) {
		return cw
	}
	return ccw
}

// Closer reports whether a is strictly numerically closer to key than b is.
// Ties are broken toward the numerically smaller ID so that exactly one node
// owns every key.
func Closer(key, a, b ID) bool {
	da, db := Dist(key, a), Dist(key, b)
	if c := da.Cmp(db); c != 0 {
		return c < 0
	}
	return a.Less(b)
}

// Digit returns the i-th base-2^b digit of d counting from the most
// significant end (digit 0 is the top b bits). b must be in [1,7] and
// i in [0, NumDigits(b)). When 128 is not divisible by b the final digit is
// taken from the zero-padded tail, matching a 128-bit id left-aligned in a
// ceil(128/b)*b-bit register.
func (d ID) Digit(i, b int) int {
	hi := 128 - i*b // exclusive top bit position of the digit
	lo := hi - b    // inclusive low bit position (may go negative on tail)
	shift := lo
	width := b
	if shift < 0 {
		width += shift
		shift = 0
	}
	v := d.extractBits(shift, width)
	if lo < 0 {
		v <<= uint(-lo) // pad tail digit on the right
	}
	return int(v)
}

// extractBits returns bits [shift, shift+width) of the 128-bit value
// (bit 0 = least significant).
func (d ID) extractBits(shift, width int) uint64 {
	if width <= 0 {
		return 0
	}
	mask := uint64(1)<<uint(width) - 1
	if shift >= 64 {
		return (d.Hi >> uint(shift-64)) & mask
	}
	v := d.Lo >> uint(shift)
	if shift+width > 64 {
		v |= d.Hi << uint(64-shift)
	}
	return v & mask
}

// NumDigits returns the number of base-2^b digits in a 128-bit ID.
func NumDigits(b int) int { return (Bits + b - 1) / b }

// CommonPrefix returns the number of leading base-2^b digits shared by a
// and b.
func CommonPrefix(a, o ID, b int) int {
	n := NumDigits(b)
	for i := 0; i < n; i++ {
		if a.Digit(i, b) != o.Digit(i, b) {
			return i
		}
	}
	return n
}

// WithDigit returns a copy of d whose i-th base-2^b digit is set to v,
// and all following digits cleared to zero. It is used to synthesize routing
// table target prefixes.
func (d ID) WithDigit(i, b, v int) ID {
	n := NumDigits(b)
	var out ID
	for j := 0; j < i; j++ {
		out = out.setDigit(j, b, d.Digit(j, b))
	}
	out = out.setDigit(i, b, v)
	_ = n
	return out
}

func (d ID) setDigit(i, b, v int) ID {
	hi := 128 - i*b
	lo := hi - b
	shift := lo
	width := b
	val := uint64(v)
	if shift < 0 {
		val >>= uint(-lo)
		width += shift
		shift = 0
	}
	return d.orBits(shift, width, val)
}

func (d ID) orBits(shift, width int, v uint64) ID {
	if width <= 0 {
		return d
	}
	v &= uint64(1)<<uint(width) - 1
	if shift >= 64 {
		d.Hi |= v << uint(shift-64)
		return d
	}
	d.Lo |= v << uint(shift)
	if shift+width > 64 {
		d.Hi |= v >> uint(64-shift)
	}
	return d
}

// ZonePrefix returns the top m bits of d, interpreted as the zone ID of the
// locality-aware multi-ring structure (§4.2: NodeId = P*2^n + S).
// m must be in [1, 64].
func (d ID) ZonePrefix(m int) uint64 {
	return d.Hi >> uint(64-m)
}

// Suffix returns d with the top m bits cleared: the intra-zone suffix S.
func (d ID) Suffix(m int) ID {
	mask := ^uint64(0) >> uint(m)
	return ID{Hi: d.Hi & mask, Lo: d.Lo}
}

// MakeZoned composes a full ID from an m-bit zone prefix and a suffix:
// D = P*2^n + S where n = 128 - m.
func MakeZoned(zone uint64, m int, suffix ID) ID {
	s := suffix.Suffix(m)
	return ID{Hi: s.Hi | zone<<uint(64-m), Lo: s.Lo}
}

// Between reports whether x lies on the clockwise arc (a, b] of the ring.
func Between(x, a, b ID) bool {
	// Normalize by rotating so a -> 0; then test 0 < x' <= b'.
	xr := x.Sub(a)
	br := b.Sub(a)
	return !xr.IsZero() && (xr.Cmp(br) <= 0)
}
