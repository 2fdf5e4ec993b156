package ids

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func rid(rng *rand.Rand) ID { return ID{Hi: rng.Uint64(), Lo: rng.Uint64()} }

func TestAddSubRoundTrip(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a := ID{ahi, alo}
		b := ID{bhi, blo}
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCarry(t *testing.T) {
	a := ID{Hi: 0, Lo: ^uint64(0)}
	got := a.Add(ID{Hi: 0, Lo: 1})
	if got != (ID{Hi: 1, Lo: 0}) {
		t.Fatalf("carry: got %v", got)
	}
	// Wrap-around at 2^128.
	max := ID{Hi: ^uint64(0), Lo: ^uint64(0)}
	if got := max.Add(ID{Lo: 1}); !got.IsZero() {
		t.Fatalf("wrap: got %v", got)
	}
}

func TestSubBorrow(t *testing.T) {
	a := ID{Hi: 1, Lo: 0}
	got := a.Sub(ID{Hi: 0, Lo: 1})
	if got != (ID{Hi: 0, Lo: ^uint64(0)}) {
		t.Fatalf("borrow: got %v", got)
	}
}

func TestCmpOrdering(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{ID{0, 0}, ID{0, 0}, 0},
		{ID{0, 1}, ID{0, 2}, -1},
		{ID{1, 0}, ID{0, ^uint64(0)}, 1},
		{ID{2, 5}, ID{2, 5}, 0},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := ID{ahi, alo}, ID{bhi, blo}
		return Dist(a, b) == Dist(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistHalfRing(t *testing.T) {
	// Distance can never exceed 2^127.
	half := ID{Hi: 1 << 63, Lo: 0}
	f := func(ahi, alo, bhi, blo uint64) bool {
		d := Dist(ID{ahi, alo}, ID{bhi, blo})
		return d.Cmp(half) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, b := range []int{1, 2, 3, 4, 5, 6, 7} {
		n := NumDigits(b)
		for trial := 0; trial < 50; trial++ {
			d := rid(rng)
			// Reassemble the ID from its digits and compare, accounting for
			// tail padding: digit n-1 may carry fewer than b significant bits.
			var acc big.Int
			for i := 0; i < n; i++ {
				v := big.NewInt(int64(d.Digit(i, b)))
				if shift := 128 - (i+1)*b; shift >= 0 {
					acc.Or(&acc, v.Lsh(v, uint(shift)))
				} else {
					acc.Or(&acc, v.Rsh(v, uint(-shift)))
				}
			}
			if out := FromBytes(acc.FillBytes(make([]byte, 16))); out != d {
				t.Fatalf("b=%d digits do not reassemble: %v != %v", b, out, d)
			}
		}
	}
}

func TestDigitKnown(t *testing.T) {
	d := ID{Hi: 0xF123456789ABCDEF, Lo: 0}
	if got := d.Digit(0, 4); got != 0xF {
		t.Fatalf("digit0 = %x", got)
	}
	if got := d.Digit(1, 4); got != 0x1 {
		t.Fatalf("digit1 = %x", got)
	}
	if got := d.Digit(15, 4); got != 0xF {
		t.Fatalf("digit15 = %x", got)
	}
	if got := d.Digit(16, 4); got != 0 {
		t.Fatalf("digit16 = %x", got)
	}
}

func TestDigitBase3TailPadding(t *testing.T) {
	// 128 = 42*3 + 2, so digit 42 uses the low 2 bits left-shifted by 1.
	d := ID{Hi: 0, Lo: 0x3}
	b := 3
	n := NumDigits(b)
	if n != 43 {
		t.Fatalf("NumDigits(3)=%d", n)
	}
	if got := d.Digit(n-1, b); got != 0x3<<1 {
		t.Fatalf("tail digit = %d want %d", got, 0x3<<1)
	}
}

func TestCommonPrefix(t *testing.T) {
	a := ID{Hi: 0xABCD000000000000, Lo: 0}
	b := ID{Hi: 0xABCE000000000000, Lo: 0}
	if got := CommonPrefix(a, b, 4); got != 3 {
		t.Fatalf("common prefix = %d want 3", got)
	}
	if got := CommonPrefix(a, a, 4); got != NumDigits(4) {
		t.Fatalf("self prefix = %d", got)
	}
}

func TestZoneSplitRoundTrip(t *testing.T) {
	f := func(hi, lo uint64, mRaw uint8) bool {
		m := int(mRaw%16) + 1 // zones of 1..16 bits
		d := ID{hi, lo}
		zone := d.ZonePrefix(m)
		suffix := d.Suffix(m)
		return MakeZoned(zone, m, suffix) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZonePrefixKnown(t *testing.T) {
	d := ID{Hi: 0xC000000000000000, Lo: 0}
	if got := d.ZonePrefix(2); got != 3 {
		t.Fatalf("zone = %d want 3", got)
	}
	if got := d.ZonePrefix(4); got != 0xC {
		t.Fatalf("zone = %d want 12", got)
	}
}

func TestBetween(t *testing.T) {
	a := ID{0, 10}
	b := ID{0, 20}
	if !Between(ID{0, 15}, a, b) {
		t.Fatal("15 should be in (10,20]")
	}
	if !Between(ID{0, 20}, a, b) {
		t.Fatal("20 should be in (10,20]")
	}
	if Between(ID{0, 10}, a, b) {
		t.Fatal("10 should not be in (10,20]")
	}
	if Between(ID{0, 25}, a, b) {
		t.Fatal("25 should not be in (10,20]")
	}
	// Wrap-around arc.
	if !Between(ID{0, 5}, b, a) {
		t.Fatal("5 should be in (20,10] across the wrap")
	}
}

func TestCloserTotalOrder(t *testing.T) {
	// For any key and two distinct ids, exactly one is closer.
	f := func(khi, klo, ahi, alo, bhi, blo uint64) bool {
		k, a, b := ID{khi, klo}, ID{ahi, alo}, ID{bhi, blo}
		if a == b {
			return !Closer(k, a, b) && !Closer(k, b, a)
		}
		return Closer(k, a, b) != Closer(k, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashDeterministicAndDistinct(t *testing.T) {
	a := Hash("activity-recognition", "ownerA")
	b := Hash("activity-recognition", "ownerA")
	c := Hash("activity-recognition", "ownerB")
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if a == c {
		t.Fatal("hash collision for different inputs")
	}
	// Separator byte prevents concatenation ambiguity.
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Fatal("hash ambiguity between part boundaries")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		d := ID{hi, lo}
		b := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, hi), lo)
		return FromBytes(b) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringLen(t *testing.T) {
	d := ID{Hi: 1, Lo: 2}
	if len(d.String()) != 32 {
		t.Fatalf("hex length = %d", len(d.String()))
	}
}
