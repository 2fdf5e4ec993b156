package ml

import (
	"math/rand"
	"testing"
)

// benchModel mirrors the Table 3 FEMNIST task: a [64, 48, 62] MLP over
// batches of the paper's minibatch size (20).
func benchModel(b *testing.B) (*MLP, [][]float64, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	m := NewMLP([]int{64, 48, 62}, rng)
	X := make([][]float64, 20)
	Y := make([]int, 20)
	for i := range X {
		X[i] = make([]float64, 64)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		Y[i] = rng.Intn(62)
	}
	return m, X, Y
}

// BenchmarkBackward measures one mini-batch gradient computation on the
// hot path: a reused per-worker Workspace, zero steady-state allocations.
func BenchmarkBackward(b *testing.B) {
	m, X, Y := benchModel(b)
	ws := NewWorkspace()
	g := ws.Grads(m.Sizes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Zero()
		m.BackwardWS(X, Y, g, ws)
	}
}

// BenchmarkTrainEpoch measures one full epoch of mini-batch SGD over a
// 50-sample client shard (the Table 3 per-client workload) with a reused
// workspace and the in-place SGD step.
func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	d := FEMNISTLike(50, rng)
	m := NewMLP([]int{64, 48, 62}, rng)
	ws := NewWorkspace()
	opt := ws.Optimizer(0.05, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainEpochWS(m, d, 20, opt, 0, nil, rng, ws)
	}
}
