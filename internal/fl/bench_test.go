package fl

import (
	"math/rand"
	"testing"

	"totoro/internal/ml"
)

// BenchmarkLocalTrain measures one client's full local update (model
// restore, epoch of SGD, delta extraction) on the Table 3 FEMNIST shape,
// running the hot path: a reused per-worker workspace, as the training
// pool does.
func BenchmarkLocalTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	proto := ml.NewMLP([]int{64, 48, 62}, rng)
	global := proto.Params()
	data := ml.FEMNISTLike(50, rng)
	cfg := ClientConfig{LocalEpochs: 1, BatchSize: 20, LR: 0.1, Momentum: 0.5}
	ws := ml.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalTrainWS(proto, global, data, cfg, rng, ws)
	}
}

// BenchmarkAccumMerge measures folding one client update into a running
// partial aggregate with the in-place hot path every interior tree node
// runs per child.
func BenchmarkAccumMerge(b *testing.B) {
	benchAccumAdd(b, 45, []int{64, 48, 62})
}

// BenchmarkAccumAddBig is BenchmarkAccumMerge at the size bigmodel-1k
// aggregates: the 32 574 parameters of a 64-256-62 model.
func BenchmarkAccumAddBig(b *testing.B) {
	benchAccumAdd(b, 49, []int{64, 256, 62})
}

func benchAccumAdd(b *testing.B, seed int64, sizes []int) {
	delta := ml.NewMLP(sizes, rand.New(rand.NewSource(seed))).Params()
	agg := NewAccum(Update{Delta: delta, Samples: 50})
	leaf := NewAccum(Update{Delta: delta, Samples: 50})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Add(leaf)
	}
}
