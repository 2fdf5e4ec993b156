package multiring

import (
	"testing"
	"testing/quick"

	"totoro/internal/ids"
)

// TestSubSuffixModularProperty: (a-b)+(b-a) ≡ 0 on the suffix ring and
// subSuffix(a,a) = 0.
func TestSubSuffixModularProperty(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64, mRaw uint8) bool {
		m := int(mRaw%16) + 1
		a := ids.ID{Hi: ahi, Lo: alo}.Suffix(m)
		b := ids.ID{Hi: bhi, Lo: blo}.Suffix(m)
		if !subSuffix(a, a, m).IsZero() {
			return false
		}
		sum := subSuffix(a, b, m).Add(subSuffix(b, a, m)).Suffix(m)
		return sum.IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBetweenSuffixExclusiveInclusive: x ∈ (a,b] on the suffix ring is
// mutually exclusive with x ∈ (b,a] unless x==a or x==b.
func TestBetweenSuffixExclusiveInclusive(t *testing.T) {
	f := func(xhi, xlo, ahi, alo, bhi, blo uint64, mRaw uint8) bool {
		m := int(mRaw%16) + 1
		x := ids.ID{Hi: xhi, Lo: xlo}.Suffix(m)
		a := ids.ID{Hi: ahi, Lo: alo}.Suffix(m)
		b := ids.ID{Hi: bhi, Lo: blo}.Suffix(m)
		if a == b || x == a || x == b {
			return true
		}
		return betweenSuffix(x, a, b, m) != betweenSuffix(x, b, a, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerWithinZoneIsSuccessor: the owner never has a suffix strictly
// between the key and any other member going clockwise.
func TestOwnerWithinZoneDeterministic(t *testing.T) {
	c := newMRCluster(t, 4, 40, 4, 99)
	for trial := 0; trial < 50; trial++ {
		key := ids.MakeZoned(uint64(trial%4), 4, ids.Random(c.rng))
		o1 := OwnerWithinZone(c.nodes, key, 4)
		o2 := OwnerWithinZone(c.nodes, key, 4)
		if o1 != o2 || o1 == nil {
			t.Fatal("owner lookup unstable")
		}
		if o1.Zone() != key.ZonePrefix(4) {
			t.Fatal("owner outside the key's zone")
		}
	}
}
