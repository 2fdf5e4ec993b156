package fl

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"totoro/internal/ml"
)

// draws makes n calls on r, the k-th through the method that mix's 3-bit
// field k mod 21 names, and returns everything they returned as bits.
func draws(r *rand.Rand, n int, mix uint64) []uint64 {
	var out []uint64
	for k := range n {
		switch mix >> (3 * (k % 21)) & 7 {
		case 0:
			for _, v := range r.Perm(9) {
				out = append(out, uint64(v))
			}
		case 1:
			p := []uint64{0, 1, 2, 3, 4, 5, 6}
			r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			out = append(out, p...)
		case 2:
			out = append(out, uint64(r.Intn(1000)), uint64(r.Intn(1<<40)))
		case 3:
			out = append(out, math.Float64bits(r.Float64()))
		case 4:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 5:
			out = append(out, uint64(r.Int63()))
		default:
			out = append(out, r.Uint64())
		}
	}
	return out
}

// allUint64 is the mix that draws through Uint64 alone, one source output
// per call, so that draw counts are word counts.
const allUint64 = 0x7fff_ffff_ffff_ffff

// checkSource compares lazy, reseeded to seed, with a new math/rand source
// over n calls of the given mix.
func checkSource(t *testing.T, lazy *rand.Rand, seed int64, n int, mix uint64) {
	t.Helper()
	lazy.Seed(seed)
	want := draws(rand.New(rand.NewSource(seed)), n, mix)
	if got := draws(lazy, n, mix); !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("seed %d, %d calls of mix %#x: value %d of %d differs from math/rand's", seed, n, mix, i, len(want))
	}
}

// TestLazySourceMatchesMathRand: one lazily seeded source, reseeded for
// every case, draws what a new math/rand source draws — over 300+ seeds
// that take every branch of the seed reduction, call counts on both sides
// of the word boundaries 273, 334 and 607 and past 607, and every method
// the engine and its tests draw through.
func TestLazySourceMatchesMathRand(t *testing.T) {
	if !exactSource {
		t.Fatal("the lazy source failed its init self-check against math/rand; ClientRNG runs on rand.NewSource")
	}
	seeds := []int64{0, 1, -1, 89482311, int32max, -int32max, 2 * int32max, -5 * int32max, 7*int32max + 1, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(3))
	for len(seeds) < 320 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	counts := []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1300}
	lazy := rand.New(new(lazySource))
	for _, seed := range seeds {
		for _, n := range counts {
			checkSource(t, lazy, seed, n, allUint64)
		}
		checkSource(t, lazy, seed, 400, pick.Uint64())
	}
}

// TestClientRNGMatchesDerivedSource: a workspace's rng, reseeded per client,
// draws what the client's own derived math/rand source would.
func TestClientRNGMatchesDerivedSource(t *testing.T) {
	ws := ml.NewWorkspace()
	for round := range 20 {
		tag := ClientTag("10.0.0." + string(rune('a'+round)))
		r := ClientRNG(ws, 42, round, tag)
		if r != ws.Rand {
			t.Fatal("ClientRNG did not reuse the workspace's rng")
		}
		want := draws(rand.New(rand.NewSource(DeriveSeed(42, round, tag))), 100, uint64(round)*0x9e3779b97f4a7c15)
		if got := draws(r, 100, uint64(round)*0x9e3779b97f4a7c15); !slices.Equal(got, want) {
			t.Fatalf("round %d: the workspace rng's draws differ from the derived source's", round)
		}
	}
}

// FuzzRandMatchesMathRand explores seeds, call counts and method mixes
// beyond the property test's grid.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(607), uint64(allUint64))
	f.Add(int64(-int32max), uint16(334), uint64(0x123456789abcdef))
	f.Add(int64(math.MinInt64), uint16(1000), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mix uint64) {
		checkSource(t, rand.New(new(lazySource)), seed, int(n%1500), mix)
	})
}
