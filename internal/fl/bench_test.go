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

// BenchmarkClientJobBig is one worker's whole client job at the shape
// bigmodel-1k trains: a 64-256-62 model on a 60-sample shard in batches of
// 20 — the client's rng, its local training and its sample weighting —
// with the update recycled, as the tree recycles it after its last merge.
func BenchmarkClientJobBig(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	proto := ml.NewMLP([]int{64, 256, 62}, rng)
	global := proto.Params()
	data := ml.FEMNISTLike(60, rng)
	cfg := ClientConfig{LocalEpochs: 1, BatchSize: 20, LR: 0.1, Momentum: 0.5}
	tag := ClientTag("10.0.0.1:9000")
	ws := ml.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := LocalTrainWS(proto, global, data, cfg, ClientRNG(ws, 1, i, tag), ws)
		Recycle(NewAccumOwning(u))
	}
}

// rngSink keeps BenchmarkDeriveRNG's draws alive.
var rngSink int

// BenchmarkDeriveRNG is a client's randomness in one round: the worker's
// rng reseeded for the client, then the draws of one epoch's shuffle of a
// 60-sample shard.
func BenchmarkDeriveRNG(b *testing.B) {
	ws := ml.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := ClientRNG(ws, 1, i, 7)
		for k := 1; k <= 60; k++ {
			rngSink += r.Intn(k)
		}
	}
}
