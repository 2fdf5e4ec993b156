package fl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"totoro/internal/ml"
)

// Update is one client's contribution to a round: the parameter delta it
// computed locally and the number of samples that backed it.
type Update struct {
	Delta   []float64
	Samples int
}

// Accum is the associative, commutative partial aggregate that flows up a
// Totoro dataflow tree: the sample-weighted sum of deltas plus counters.
// Interior tree nodes merge Accums (in-network aggregation); the root
// resolves the weighted mean.
type Accum struct {
	WeightedSum []float64
	Samples     int
	Count       int
}

// NewAccum starts an aggregate from a single update.
func NewAccum(u Update) *Accum {
	return NewAccumOwning(Update{Delta: slices.Clone(u.Delta), Samples: u.Samples})
}

// NewAccumOwning starts an aggregate from an update whose delta buffer the
// caller hands over: the weighting is applied in place and the Update must
// not be used afterwards. This is the hot-path form of NewAccum.
func NewAccumOwning(u Update) *Accum {
	ml.Scale(float64(u.Samples), u.Delta)
	return &Accum{WeightedSum: u.Delta, Samples: u.Samples, Count: 1}
}

// Add folds b into a in place (b is read, never retained). The O(P)
// buffer is reused, so interior aggregation nodes merging many children
// do not allocate per merge.
//
//vet:noalloc
func (a *Accum) Add(b *Accum) {
	if len(a.WeightedSum) != len(b.WeightedSum) {
		panic(fmt.Sprintf("fl: merging aggregates of different sizes %d vs %d",
			len(a.WeightedSum), len(b.WeightedSum)))
	}
	ml.Axpy(1, b.WeightedSum, a.WeightedSum)
	a.Samples += b.Samples
	a.Count += b.Count
}

// MergeInPlace folds b into a, reusing a's buffer (either side may be nil).
// The caller owns both: b then goes to the free list (see Recycle), so
// neither b nor its buffer may be read again.
//
//vet:noalloc
func MergeInPlace(a, b *Accum) *Accum {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	a.Add(b)
	if b != a {
		Recycle(b)
	}
	return a
}

// ApplyMean adds the FedAvg weighted-mean delta into global in place:
// global[i] += WeightedSum[i]/Samples, rounded exactly as materialising the
// mean first would be. A nil or empty aggregate changes nothing.
//
//vet:noalloc
func (a *Accum) ApplyMean(global []float64) {
	if a == nil || a.Samples == 0 {
		return
	}
	w := float64(a.Samples)
	for i, v := range a.WeightedSum[:len(global)] {
		global[i] += v / w
	}
}

// free is the free list of update buffers LocalTrainWS draws from. It holds
// *Accum rather than slices so that a Put does not allocate.
var free sync.Pool

// Recycle hands a's buffer to the free list for a later LocalTrainWS to
// overwrite. The caller must be a's last reader; DESIGN.md §4.1 "In-place
// aggregation" says why every update has exactly one.
//
//vet:noalloc
func Recycle(a *Accum) {
	if poisonRecycled {
		for i := range a.WeightedSum {
			a.WeightedSum[i] = math.NaN()
		}
	}
	free.Put(a)
}

// poisonRecycled is set by the poisonrecycle build tag (poison.go).
var poisonRecycled bool

// deltaBuf returns a length-n buffer of arbitrary contents, recycled when
// the free list holds one of sufficient capacity.
func deltaBuf(n int) []float64 {
	if a, ok := free.Get().(*Accum); ok && cap(a.WeightedSum) >= n {
		return a.WeightedSum[:n]
	}
	return make([]float64, n)
}

// ClientConfig controls one client's local optimization.
type ClientConfig struct {
	LocalEpochs int
	BatchSize   int
	LR          float64
	Momentum    float64
	// ProxMu > 0 enables FedProx: the local objective gains
	// μ/2·‖w − w_global‖², stabilizing convergence under non-IID data.
	ProxMu float64
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 20 // the paper's minibatch size (§7.1)
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	return c
}

// LocalTrainWS runs one client's local update starting from the global
// parameters and returns the resulting delta, which the caller owns. proto
// supplies the architecture only. All scratch state — the working model,
// optimizer, gradients, and activation buffers — comes from a reusable
// per-worker workspace, and the delta from the free list when it holds a
// large enough buffer (DeltaInto overwrites every element), so in steady
// state a call allocates nothing.
func LocalTrainWS(proto *ml.MLP, global []float64, data *ml.Dataset, cfg ClientConfig, rng *rand.Rand, ws *ml.Workspace) Update {
	cfg = cfg.withDefaults()
	if data.Len() == 0 {
		return Update{}
	}
	m := ws.Model(proto.Sizes)
	m.SetParams(global)
	opt := ws.Optimizer(cfg.LR, cfg.Momentum)
	var anchor []float64
	if cfg.ProxMu > 0 {
		anchor = global
	}
	for e := 0; e < cfg.LocalEpochs; e++ {
		ml.TrainEpochWS(m, data, cfg.BatchSize, opt, cfg.ProxMu, anchor, rng, ws)
	}
	delta := deltaBuf(len(global))
	m.DeltaInto(global, delta)
	return Update{Delta: delta, Samples: data.Len()}
}
