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
	g := zeroedGrads(ws, m.Sizes)
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
	benchTrainEpoch(b, 43, []int{64, 48, 62}, 50, 0.05)
}

func benchTrainEpoch(b *testing.B, seed int64, sizes []int, shard int, lr float64) {
	rng := rand.New(rand.NewSource(seed))
	d := FEMNISTLike(shard, rng)
	m := NewMLP(sizes, rng)
	ws := NewWorkspace()
	opt := ws.Optimizer(lr, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainEpochWS(m, d, 20, opt, 0, nil, rng, ws)
	}
}

// BenchmarkTrainEpochTiny is the epoch the training pool waits for on
// forest-10k and fleet-50k (bench/workloads.go): a 64-4-62 model, where a
// sample costs 62 exps against ≈500 forward multiply-adds, over the
// 3 000-sample shard DirichletPartition leaves its last client.
func BenchmarkTrainEpochTiny(b *testing.B) {
	benchTrainEpoch(b, 44, []int{64, 4, 62}, 3000, 0.05)
}

// BenchmarkSoftmax62 is the head alone: one 62-way softmax, over
// logits of a trained model's spread.
func BenchmarkSoftmax62(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	logits := make([]float64, 62)
	for i := range logits {
		logits[i] = rng.NormFloat64() * 3
	}
	p := make([]float64, 62)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		softmaxInto(p, logits)
	}
	benchSink += p[0]
}

// bigSizes is the model bigmodel-1k trains (bench/workloads.go): the Big
// benchmarks below run the shapes the end-to-end benchmark spends its train
// phase in — batch 20, a 60-sample shard, a 450-sample test set.
var bigSizes = []int{64, 256, 62}

// BenchmarkTrainEpochBig is one worker's local epoch on bigmodel-1k.
func BenchmarkTrainEpochBig(b *testing.B) {
	benchTrainEpoch(b, 46, bigSizes, 60, 0.1)
}

// BenchmarkStepModelBig is the SGD step alone: one element-wise pass over
// the 32 574 parameters, their gradients and their velocities.
func BenchmarkStepModelBig(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	m := NewMLP(bigSizes, rng)
	g := newGrads(m.Sizes)
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] = rng.NormFloat64() * 1e-3
		}
	}
	opt := &SGD{LR: 0.1, Momentum: 0.5}
	opt.StepModel(m, g, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.StepModel(m, g, 0, nil)
	}
}

// BenchmarkAccuracyBig is the master's per-round evaluation.
func BenchmarkAccuracyBig(b *testing.B) {
	benchAccuracy(b, 48, bigSizes, 450)
}

// BenchmarkAccuracyTiny is the same on forest-10k: the 64-4-62 model over
// the 900-sample test set of a 600-worker app.
func BenchmarkAccuracyTiny(b *testing.B) {
	benchAccuracy(b, 49, []int{64, 4, 62}, 900)
}

func benchAccuracy(b *testing.B, seed int64, sizes []int, samples int) {
	rng := rand.New(rand.NewSource(seed))
	m := NewMLP(sizes, rng)
	test := FEMNISTLike(samples, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.Accuracy(test)
	}
}

var benchSink float64
