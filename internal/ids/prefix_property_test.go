package ids

import (
	"testing"
	"testing/quick"
)

// TestCommonPrefixDigitConsistency: CommonPrefix(a,b,B)=k means the first k
// digits agree and (when k < NumDigits) digit k differs.
func TestCommonPrefixDigitConsistency(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64, bRaw uint8) bool {
		b := int(bRaw%5) + 2 // bases 2..6
		a, o := ID{ahi, alo}, ID{bhi, blo}
		k := CommonPrefix(a, o, b)
		for i := 0; i < k; i++ {
			if a.Digit(i, b) != o.Digit(i, b) {
				return false
			}
		}
		if k < NumDigits(b) {
			return a.Digit(k, b) != o.Digit(k, b)
		}
		return a == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAddSubDistMetricProperties: Dist satisfies identity and a triangle
// inequality on the ring (up to wraparound min).
func TestAddSubDistMetricProperties(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, o := ID{ahi, alo}, ID{bhi, blo}
		if Dist(a, a) != (ID{}) {
			return false
		}
		// Shifting both points by the same offset preserves distance.
		off := ID{Hi: 0xdeadbeef, Lo: 0x12345678}
		return Dist(a.Add(off), o.Add(off)) == Dist(a, o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
