package fl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestPairwiseMaskAntisymmetric(t *testing.T) {
	a := PairwiseMaskScaled("alice", "bob", 3, 64, 1)
	b := PairwiseMaskScaled("bob", "alice", 3, 64, 1)
	for i := range a {
		if a[i] != -b[i] {
			t.Fatalf("mask not antisymmetric at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPairwiseMaskVariesWithRoundAndPair(t *testing.T) {
	a := PairwiseMaskScaled("alice", "bob", 1, 32, 1)
	b := PairwiseMaskScaled("alice", "bob", 2, 32, 1)
	c := PairwiseMaskScaled("alice", "carol", 1, 32, 1)
	same := func(x, y []float64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, b) {
		t.Fatal("mask identical across rounds")
	}
	if same(a, c) {
		t.Fatal("mask identical across pairs")
	}
}

func TestPairwiseMaskBoundedAndNontrivial(t *testing.T) {
	m := PairwiseMaskScaled("x", "y", 0, 256, 1)
	nonzero := 0
	for _, v := range m {
		if v < -1 || v >= 1 {
			t.Fatalf("mask value %v out of [-1,1)", v)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 200 {
		t.Fatalf("mask suspiciously sparse: %d nonzero of 256", nonzero)
	}
}

// TestSecureRoundMasksCancelExactly masks every participant's update, sums
// the masked vectors as the aggregation tree would, and finds the plain sum.
func TestSecureRoundMasksCancelExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := 50
	var names []string
	for c := 0; c < 12; c++ {
		names = append(names, fmt.Sprintf("client-%02d", c))
	}
	want := make([]float64, dim)
	got := make([]float64, dim)
	for _, n := range names {
		u := make([]float64, dim)
		for i := range u {
			u[i] = rng.NormFloat64()
			want[i] += u[i]
		}
		for i, v := range MaskUpdateScaled(n, names, 5, u, 1) {
			got[i] += v
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("sum mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestMaskedUpdateHidesPlaintext(t *testing.T) {
	// A single masked update must differ substantially from the plaintext:
	// the server learns nothing from one vector alone.
	delta := make([]float64, 40)
	for i := range delta {
		delta[i] = 0.001 * float64(i)
	}
	masked := MaskUpdateScaled("alice", []string{"alice", "bob", "carol"}, 1, delta, 1)
	diff := 0.0
	for i := range delta {
		diff += math.Abs(masked[i] - delta[i])
	}
	if diff < 1.0 {
		t.Fatalf("masking barely changed the update (L1 diff %v)", diff)
	}
}
