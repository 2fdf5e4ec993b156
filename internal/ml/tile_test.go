package ml

import (
	"math"
	"math/rand"
	"testing"
)

// tileWidths are layer widths below, at and around the vector width, the
// register blocks of forwardTileAVX (4, 8, 12 outputs) and the benchmark
// models' 62 and 256.
var tileWidths = []int{1, 2, 3, 4, 5, 7, 8, 9, 35, 48, 62, 256}

// tileSpecials are the values on which multiplying a zero input in instead
// of skipping it could show.
var tileSpecials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

// spoil overwrites each element of v with a special value with probability p.
func spoil(v []float64, p float64, rng *rand.Rand) {
	for i := range v {
		if rng.Float64() < p {
			v[i] = tileSpecials[rng.Intn(len(tileSpecials))]
		}
	}
}

// checkCountCorrect labels every sample with predictInto's prediction (the
// per-sample path) and requires CountCorrect to score all of them, so any
// sample it predicts differently fails. Where the model is tiled, every
// logit forwardTile computes must be Forward's bit for bit, or a zero where
// Forward has a zero of either sign, or a NaN (a sample CountCorrect then
// scores per sample).
func checkCountCorrect(t *testing.T, m *MLP, X [][]float64) {
	t.Helper()
	Y := make([]int, len(X))
	for i, x := range X {
		Y[i] = m.predictInto(x, m.ActBuffer())
	}
	buf := m.ActBuffer()
	if got := m.CountCorrect(X, Y, buf); got != len(X) {
		t.Fatalf("sizes %v, %d samples: CountCorrect %d, per-sample path %d", m.Sizes, len(X), got, len(X))
	}
	if !m.tiled() {
		return
	}
	out := m.Sizes[len(m.Sizes)-1]
	for lo := 0; lo < len(X); lo += tile {
		n := min(tile, len(X)-lo)
		z := m.forwardTile(X[lo:lo+n], buf)
		for s := range n {
			ref := m.Forward(X[lo+s])
			for j, r := range ref {
				g := z[s*out+j]
				if math.Float64bits(g) == math.Float64bits(r) || (g == 0 && r == 0) || math.IsNaN(g) {
					continue
				}
				t.Fatalf("sizes %v, sample %d logit %d: tile %v (%#016x), per sample %v (%#016x)",
					m.Sizes, lo+s, j, g, math.Float64bits(g), r, math.Float64bits(r))
			}
		}
	}
}

// tileModel draws a model of the given sizes and n samples, with a share p
// of weights, biases and inputs replaced by zeros of both signs, NaN and
// ±Inf.
func tileModel(sizes []int, n int, p float64, rng *rand.Rand) (*MLP, [][]float64) {
	m := NewMLP(sizes, rng)
	for l := range m.W {
		for i := range m.B[l] {
			m.B[l][i] = rng.NormFloat64() * 0.1
		}
		spoil(m.W[l], p/float64(sizes[l]), rng)
		spoil(m.B[l], p, rng)
	}
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, sizes[0])
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		spoil(X[i], 4*p, rng)
	}
	return m, X
}

// TestCountCorrectMatchesPerSample: every width in every layer position of
// two- and three-layer models, every sample count from 0 to 33, with no,
// few and many special values.
func TestCountCorrectMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pick := func() int { return tileWidths[rng.Intn(len(tileWidths))] }
	trial := 0
	for layers := 2; layers <= 3; layers++ {
		for pos := 0; pos <= layers; pos++ {
			for _, w := range tileWidths {
				for _, p := range []float64{0, 0.02, 0.2} {
					sizes := make([]int, layers+1)
					for i := range sizes {
						sizes[i] = pick()
						if layers == 3 && i > 0 && i < layers && sizes[i] == 256 {
							sizes[i] = 48 // keeps the 3-layer cases quick
						}
					}
					sizes[pos] = w
					m, X := tileModel(sizes, trial%34, p, rng)
					checkCountCorrect(t, m, X)
					trial++
				}
			}
		}
	}
}

// FuzzCountCorrect puts four arbitrary values into an input, a weight of
// each layer and a bias of a model whose sizes and sample count come from
// the seed.
func FuzzCountCorrect(f *testing.F) {
	for i, v := range tileSpecials {
		f.Add(int64(i), v, 1.0, 0.5, v)
		f.Add(int64(100+i), 0.0, v, v, -1.0)
	}
	f.Add(int64(7), 1e300, -1e300, 5e-324, -0.0)
	f.Fuzz(func(t *testing.T, seed int64, in, w0, w1, b float64) {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{tileWidths[rng.Intn(len(tileWidths))], 4 + rng.Intn(30), 4 + rng.Intn(66)}
		m, X := tileModel(sizes, rng.Intn(34), 0, rng)
		if len(X) > 0 {
			X[rng.Intn(len(X))][rng.Intn(sizes[0])] = in
		}
		m.W[0][rng.Intn(len(m.W[0]))] = w0
		m.W[1][rng.Intn(len(m.W[1]))] = w1
		m.B[rng.Intn(2)][0] = b
		checkCountCorrect(t, m, X)
	})
}
