//go:build amd64

package ml_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"totoro/internal/fl"
	"totoro/internal/ml"
)

// goldenDeltas pins fl.LocalTrainWS bit for bit: an FNV-64a hash over the
// Float64bits of the delta of a two-epoch FedAvg update followed by the
// delta of a FedProx one, for the benchmarked 64-256-62 model and a 64-4-62
// one whose hidden layer is a single vector, over shard sizes that produce
// every block/tail combination of batch 20 (8-blocks, the 4-block, singles).
// The constants were recorded on the commit before the element-wise AVX
// kernels and the BackwardWS loop interchanges (PR 21) and must never be
// re-recorded to make a kernel change pass: the per-element operation order
// is the interface (DESIGN.md §4.1). The AVX and the scalar path are each
// pinned; they differ from each other because only the first fuses a
// multiply-add.
var goldenDeltas = []struct {
	hidden, shard int
	simd, scalar  uint64
}{
	{256, 1, 0x14689bb5891d539a, 0x271238043e055efe},
	{256, 3, 0x9abc1c058d299e29, 0x144298ce819e9d9d},
	{256, 4, 0x2451dc9aebc94814, 0x5ac803c730d1f1c5},
	{256, 7, 0x128644a70ea6b098, 0x921bebf1e535769b},
	{256, 8, 0xa3bc6b7963fa765d, 0x55bf3cdc894e3a32},
	{256, 12, 0xb2c238c94a9aff1a, 0x3fc048d662588360},
	{256, 20, 0x1e539adffae4bec6, 0x210445041712b8db},
	{256, 23, 0x5a5c9e49a4772c37, 0xa59bccbc14be27af},
	{256, 60, 0xcb675330ed0f3cad, 0xd5c27605eeebc9ba},
	{4, 1, 0x593beee2884bd86d, 0xd4055e8f11cc3725},
	{4, 3, 0x38d14c3b02b5b731, 0xc14162183eaa81fb},
	{4, 4, 0xd6317def5efcf124, 0xf3a33b07e1db230a},
	{4, 7, 0xc10eebfe4c7787aa, 0x3f01ec322860cfbc},
	{4, 8, 0xac3638e63349e2f8, 0xb2d7493a16713b56},
	{4, 12, 0x136c0c4b224e5c77, 0x841b3222de9a240e},
	{4, 20, 0x17f1b2129c898147, 0x20aaacd96473a7a6},
	{4, 23, 0x551cc500eb1670da, 0xc11f9798be62f6b5},
	{4, 60, 0x9ee5c44cc5ceeba2, 0x4c609318b62725cf},
}

func TestLocalTrainDeltasAreGolden(t *testing.T) {
	if !ml.SetSIMD(false) {
		t.Skip("CPU does not support AVX2+FMA")
	}
	defer ml.SetSIMD(true)
	hash := func(hidden, shard int, ws *ml.Workspace) uint64 {
		rng := rand.New(rand.NewSource(int64(1000*hidden + shard)))
		proto := ml.NewMLP([]int{64, hidden, 62}, rng)
		global := proto.Params()
		data := ml.FEMNISTLike(shard, rng)
		h := fnv.New64a()
		for _, mu := range []float64{0, 0.1} {
			cfg := fl.ClientConfig{LocalEpochs: 2, BatchSize: 20, LR: 0.1, Momentum: 0.5, ProxMu: mu}
			u := fl.LocalTrainWS(proto, global, data, cfg, rng, ws)
			var b [8]byte
			for _, v := range u.Delta {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		return h.Sum64()
	}
	wsSIMD, wsScalar := ml.NewWorkspace(), ml.NewWorkspace()
	for _, g := range goldenDeltas {
		ml.SetSIMD(true)
		simd := hash(g.hidden, g.shard, wsSIMD)
		ml.SetSIMD(false)
		scalar := hash(g.hidden, g.shard, wsScalar)
		if simd != g.simd || scalar != g.scalar {
			t.Errorf("64-%d-62, shard %d: delta hashes simd %#016x scalar %#016x, recorded %#016x and %#016x",
				g.hidden, g.shard, simd, scalar, g.simd, g.scalar)
		}
	}
}
