package experiments

import (
	"math/rand"

	"totoro/internal/fl"
	"totoro/internal/ml"
)

// This file measures the accuracy cost of the lossy compressed update
// encodings; cmd/totoro-bench -exp wire prints the rows. What the codec
// itself costs — encode, decode and sizing times, allocations, live tcpnet
// round trips — is measured by the probes in bench/.

// WireCompressionRow is the accuracy cost of one update encoding after a
// fixed training budget, next to its per-update wire size.
type WireCompressionRow struct {
	Compressor  string
	FinalAcc    float64
	UpdateBytes int // compressed bytes of one client update (last round)
	DenseBytes  int // uncompressed float64 size of the same update
	Saving      float64
}

// WireCompressionAccuracy trains the same federated workload under each
// update encoding — dense, top-k sparsification, shared-scale int8, and
// the two codec-v2 wire encodings (f32, delta-int8) — and reports final
// accuracy against wire cost. The reconstructions the session trains on
// are exactly what a tcpnet receiver would decode, so this is the measured
// accuracy price of each compression level.
func WireCompressionAccuracy(o Options) []WireCompressionRow {
	rounds, perRound := 15, 8
	if o.Short {
		rounds = 6
	}
	comps := []fl.Compressor{
		fl.NoCompression{},
		fl.TopK{K: 64},
		fl.QuantizeInt8{},
		fl.Float32{},
		fl.DeltaInt8{},
	}
	var out []WireCompressionRow
	for _, comp := range comps {
		rng := rand.New(rand.NewSource(o.Seed))
		full := ml.SyntheticClusters(10, 24, 4000, 0.45, rng)
		train, test := full.Split(0.2, rng)
		clients := ml.DirichletPartition(train, 16, 1.0, rng)
		proto := ml.NewMLP([]int{24, 32, 10}, rand.New(rand.NewSource(o.Seed+7)))
		s := fl.NewSession(proto, clients, test,
			fl.ClientConfig{LocalEpochs: 3, LR: 0.1, BatchSize: 20}, comp)
		r := rand.New(rand.NewSource(o.Seed + 11))
		var rep fl.RoundReport
		for i := 0; i < rounds; i++ {
			rep = s.Round(perRound, r)
		}
		dense := 8 * proto.NumParams()
		out = append(out, WireCompressionRow{
			Compressor:  comp.Name(),
			FinalAcc:    rep.Accuracy,
			UpdateBytes: rep.UpdateSize,
			DenseBytes:  dense,
			Saving:      1 - float64(rep.UpdateSize)/float64(dense),
		})
	}
	return out
}
