package ml

import (
	"math"
	"math/rand"
	"testing"
)

// TestBatchGradientIsMeanOfSingles: the gradient of a batch equals the
// mean of per-example gradients (linearity of the loss mean).
func TestBatchGradientIsMeanOfSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMLP([]int{6, 8, 4}, rng)
	X := make([][]float64, 5)
	Y := make([]int, 5)
	for i := range X {
		X[i] = make([]float64, 6)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		Y[i] = rng.Intn(4)
	}
	batch := newGrads(m.Sizes)
	m.BackwardWS(X, Y, batch, NewWorkspace())
	batchFlat := batch.Flat()

	mean := make([]float64, len(batchFlat))
	for i := range X {
		g := newGrads(m.Sizes)
		m.BackwardWS(X[i:i+1], Y[i:i+1], g, NewWorkspace())
		for k, v := range g.Flat() {
			mean[k] += v / float64(len(X))
		}
	}
	for k := range mean {
		if math.Abs(mean[k]-batchFlat[k]) > 1e-10*(1+math.Abs(mean[k])) {
			t.Fatalf("batch gradient != mean of singles at %d: %v vs %v", k, batchFlat[k], mean[k])
		}
	}
}

// TestMomentumAcceleratesOnQuadratic: with a constant gradient, momentum
// moves parameters further than plain SGD after a few steps.
func TestMomentumAcceleratesOnQuadratic(t *testing.T) {
	step := func(mom float64) float64 {
		p := []float64{0}
		opt := &SGD{LR: 0.1, Momentum: mom}
		for i := 0; i < 10; i++ {
			opt.Step(p, []float64{1}) // constant gradient pushes p negative
		}
		return -p[0]
	}
	if step(0.9) <= step(0) {
		t.Fatalf("momentum did not accelerate: %v vs %v", step(0.9), step(0))
	}
}

// TestPredictConsistentWithForward: the per-sample prediction is the argmax
// of Forward.
func TestPredictConsistentWithForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := NewMLP([]int{5, 7, 3}, rng)
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 5)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		logits := m.Forward(x)
		best := 0
		for j := 1; j < len(logits); j++ {
			if logits[j] > logits[best] {
				best = j
			}
		}
		if m.predictInto(x, m.ActBuffer()) != best {
			t.Fatal("prediction disagrees with Forward argmax")
		}
	}
}
