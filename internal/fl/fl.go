package fl

import (
	"fmt"
	"math/rand"

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
	ws := make([]float64, len(u.Delta))
	w := float64(u.Samples)
	for i, v := range u.Delta {
		ws[i] = v * w
	}
	return &Accum{WeightedSum: ws, Samples: u.Samples, Count: 1}
}

// NewAccumOwning starts an aggregate from an update whose delta buffer the
// caller hands over: the weighting is applied in place and the Update must
// not be used afterwards. This is the hot-path form of NewAccum.
func NewAccumOwning(u Update) *Accum {
	w := float64(u.Samples)
	for i := range u.Delta {
		u.Delta[i] *= w
	}
	return &Accum{WeightedSum: u.Delta, Samples: u.Samples, Count: 1}
}

// Merge folds two partial aggregates (either may be nil) into a freshly
// allocated result. It never mutates its arguments; aggregation hot paths
// that own their left operand use MergeInPlace instead.
func Merge(a, b *Accum) *Accum {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &Accum{
		WeightedSum: make([]float64, len(a.WeightedSum)),
		Samples:     a.Samples,
		Count:       a.Count,
	}
	copy(out.WeightedSum, a.WeightedSum)
	out.Add(b)
	return out
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

// MergeInPlace folds b into a, reusing a's buffer when possible (either
// side may be nil). The caller must own a; b is only read.
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
	return a
}

// MeanDelta resolves the FedAvg weighted-average delta. Nil if empty.
func (a *Accum) MeanDelta() []float64 {
	if a == nil || a.Samples == 0 {
		return nil
	}
	out := make([]float64, len(a.WeightedSum))
	w := float64(a.Samples)
	for i, v := range a.WeightedSum {
		out[i] = v / w
	}
	return out
}

// ApplyDelta adds delta into global in place.
//
//vet:noalloc
func ApplyDelta(global, delta []float64) {
	ml.Axpy(1, delta[:len(global)], global)
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

// LocalTrain runs one client's local update starting from the global
// parameters and returns the resulting delta. proto supplies the model
// architecture (it is cloned, never mutated). It is a thin wrapper over
// LocalTrainWS with a throwaway workspace.
func LocalTrain(proto *ml.MLP, global []float64, data *ml.Dataset, cfg ClientConfig, rng *rand.Rand) Update {
	return LocalTrainWS(proto, global, data, cfg, rng, ml.NewWorkspace())
}

// LocalTrainWS is LocalTrain with all scratch state — the working model,
// optimizer, gradients, and activation buffers — drawn from a reusable
// per-worker workspace. The only allocation per call is the returned
// delta vector, which the caller keeps.
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
	delta := make([]float64, len(global))
	m.DeltaInto(global, delta)
	return Update{Delta: delta, Samples: data.Len()}
}
