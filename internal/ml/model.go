// Package ml is a small, dependency-free neural-network training stack.
//
// It stands in for the paper's Keras layer (§6): multi-layer perceptrons
// with ReLU activations and a softmax cross-entropy head, trained by
// mini-batch SGD with momentum and weight decay. Totoro's evaluation
// measures *system* effects — time-to-accuracy under concurrent
// applications, serialization cost, aggregation topology — so any model
// whose loss falls with aggregated training reproduces those effects; the
// paper's ResNet-34 and ShuffleNet V2 are replaced by MLPs of matching
// role (see DESIGN.md §1).
//
// Everything is deterministic given a *rand.Rand, which the experiment
// harness relies on.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a multi-layer perceptron with ReLU hidden layers and a softmax
// cross-entropy output.
type MLP struct {
	// Sizes is [inputDim, hidden..., numClasses].
	Sizes []int
	// W[l] is the (Sizes[l] × Sizes[l+1]) weight matrix, row-major.
	W [][]float64
	// B[l] is the bias vector of layer l.
	B [][]float64
}

// NewMLP creates an MLP with Xavier/Glorot-uniform initialization.
func NewMLP(sizes []int, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("ml: MLP needs at least input and output sizes")
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		limit := math.Sqrt(6.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m
}

// Clone deep-copies the model.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	for l := range m.W {
		c.W = append(c.W, append([]float64(nil), m.W[l]...))
		c.B = append(c.B, append([]float64(nil), m.B[l]...))
	}
	return c
}

// NumParams returns the total number of trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.W {
		n += len(m.W[l]) + len(m.B[l])
	}
	return n
}

// Params flattens all parameters into one vector (copy).
func (m *MLP) Params() []float64 {
	out := make([]float64, 0, m.NumParams())
	for l := range m.W {
		out = append(out, m.W[l]...)
		out = append(out, m.B[l]...)
	}
	return out
}

// SetParams installs a flat parameter vector produced by Params.
//
//vet:noalloc
func (m *MLP) SetParams(p []float64) {
	if len(p) != m.NumParams() {
		panic(fmt.Sprintf("ml: SetParams length %d want %d", len(p), m.NumParams()))
	}
	off := 0
	for l := range m.W {
		off += copy(m.W[l], p[off:off+len(m.W[l])])
		off += copy(m.B[l], p[off:off+len(m.B[l])])
	}
}

// Forward computes the class logits for one input.
func (m *MLP) Forward(x []float64) []float64 {
	a := x
	for l := range m.W {
		a = m.layerForward(l, a, l+1 < len(m.W))
	}
	return a
}

func (m *MLP) layerForward(l int, a []float64, relu bool) []float64 {
	z := make([]float64, m.Sizes[l+1])
	m.layerForwardInto(l, a, z, relu)
	return z
}

// layerForwardInto computes layer l's output into z (len Sizes[l+1]).
//
//vet:noalloc
func (m *MLP) layerForwardInto(l int, a, z []float64, relu bool) {
	in, out := m.Sizes[l], m.Sizes[l+1]
	z = z[:out]
	copy(z, m.B[l])
	w := m.W[l]
	a = a[:in]
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		axpy(ai, w[i*out:i*out+out], z)
	}
	if relu {
		reluClamp(z)
	}
}

// tile is how many samples CountCorrect runs through a layer per kernel
// call: four samples' accumulators for three output vectors are twelve of
// the sixteen YMM registers.
const tile = 4

// ActBuffer returns the scratch CountCorrect needs: one tile's inputs and
// two activation buffers, each tile rows as wide as the widest layer
// output, in one slice.
func (m *MLP) ActBuffer() []float64 { return make([]float64, m.actLen()) }

// actLen is the length of ActBuffer's slice.
func (m *MLP) actLen() int {
	width := 0
	for l := range m.W {
		width = max(width, m.Sizes[l+1])
	}
	return tile * (m.Sizes[0] + 2*width)
}

// predictInto returns the argmax class for one input, with the activations
// ping-ponging between the two halves of buf (see ActBuffer) instead of a
// fresh slice per layer. The arithmetic and its order are Forward's.
//
//vet:noalloc
func (m *MLP) predictInto(x, buf []float64) int {
	half := len(buf) / 2
	a := x
	for l := range m.W {
		z := buf[(l&1)*half:][:m.Sizes[l+1]]
		m.layerForwardInto(l, a, z, l+1 < len(m.W))
		a = z
	}
	best := 0
	for j := 1; j < len(a); j++ {
		if a[j] > a[best] {
			best = j
		}
	}
	return best
}

// argmaxOrdered is predictInto's argmax — the first index of a's largest
// element as > ranks them, ±0 alike — for an a without NaN, and -1 for an a
// with one, which > does not rank.
//
//vet:noalloc
func argmaxOrdered(a []float64) int {
	best, top := 0, a[0]
	for j, v := range a {
		if v != v {
			return -1
		}
		if v > top {
			best, top = j, v
		}
	}
	return best
}

// Accuracy evaluates top-1 accuracy over a dataset. It allocates one
// activation buffer per call and nothing per sample.
//
//vet:noalloc amortized
func (m *MLP) Accuracy(d *Dataset) float64 {
	if len(d.Y) == 0 {
		return 0
	}
	return float64(m.CountCorrect(d.X, d.Y, m.ActBuffer())) / float64(len(d.Y))
}

// CountCorrect returns how many of the samples X the model labels Y, using
// buf (from ActBuffer) as its only scratch. It only reads the model, so
// goroutines with their own buf may score disjoint samples concurrently.
//
// Where the AVX kernels run and every layer is at least four wide, samples
// go through the layers a tile at a time (forwardTile). A sample whose tile
// logits hold a NaN is scored again by predictInto; every other one gets
// predictInto's prediction (DESIGN.md §4.1, "the zero rule").
//
//vet:noalloc
func (m *MLP) CountCorrect(X [][]float64, Y []int, buf []float64) int {
	hit := 0
	if !m.tiled() {
		for i, y := range Y {
			if m.predictInto(X[i], buf) == y {
				hit++
			}
		}
		return hit
	}
	out := m.Sizes[len(m.Sizes)-1]
	for lo := 0; lo < len(Y); lo += tile {
		n := min(tile, len(Y)-lo)
		z := m.forwardTile(X[lo:lo+n], buf)
		var pred [tile]int
		for s := range n {
			pred[s] = argmaxOrdered(z[s*out : s*out+out])
		}
		for s, y := range Y[lo : lo+n] {
			if pred[s] < 0 {
				pred[s] = m.predictInto(X[lo+s], buf)
			}
			if pred[s] == y {
				hit++
			}
		}
	}
	return hit
}

// tiled reports whether CountCorrect runs m through forwardTile: the AVX
// kernels are on and every layer output is at least one vector wide, which
// is when predictInto's axpy fuses every multiply-add.
func (m *MLP) tiled() bool {
	if !hasSIMD || m.Sizes[0] == 0 {
		return false
	}
	for _, w := range m.Sizes[1:] {
		if w < 4 {
			return false
		}
	}
	return true
}

// forwardTile computes the logits of up to tile samples X (a shorter X is
// padded with its last sample) into buf, one forwardTileAVX call and one
// ReLU pass per layer, and returns them as tile rows of Sizes[L].
//
// Each element gets predictInto's operations in its order, except that an
// input of zero is multiplied in instead of skipped. Multiplying a finite
// weight by ±0 adds ±0, which changes an element at most in the sign of a
// zero; a non-finite weight makes a NaN, which the next layer spreads to
// every logit of that sample. ReLU keeps both, and argmax ranks ±0 alike,
// so a sample with no NaN among its logits has predictInto's prediction.
//
//vet:noalloc
func (m *MLP) forwardTile(X [][]float64, buf []float64) []float64 {
	in := m.Sizes[0]
	a := buf[:tile*in]
	for s := range tile {
		copy(a[s*in:s*in+in], X[min(s, len(X)-1)][:in])
	}
	acts := buf[len(a):]
	half := len(acts) / 2
	for l, w := range m.W {
		in, out := m.Sizes[l], m.Sizes[l+1]
		a = a[:tile*in]
		w, b := w[:in*out], m.B[l][:out]
		z := acts[(l&1)*half:][:tile*out]
		forwardTileAVX(&a[0], in, &w[0], &b[0], &z[0], out)
		if l+1 < len(m.W) {
			reluClamp(z)
		}
		a = z
	}
	return a
}

// Softmax converts logits into probabilities (numerically stable).
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	softmaxInto(out, logits)
	return out
}

// softmaxInto is Softmax into a caller-provided buffer (dst may alias
// logits' storage only if identical). The max scan and the sum are scalar
// and ascending on every path — their order is the interface — and exp and
// the divide are per-lane, so the AVX path returns the scalar path's bits.
//
//vet:noalloc
func softmaxInto(dst, logits []float64) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	dst = dst[:len(logits)]
	expSub(dst, logits, maxv)
	sum := 0.0
	for _, v := range dst {
		sum += v
	}
	divBy(dst, sum)
}

// Grads holds flat per-layer gradients matching the MLP layout.
type Grads struct {
	W [][]float64
	B [][]float64
}

// newGrads allocates zeroed gradients for an architecture.
func newGrads(sizes []int) *Grads {
	g := &Grads{}
	for l := 0; l+1 < len(sizes); l++ {
		g.W = append(g.W, make([]float64, sizes[l]*sizes[l+1]))
		g.B = append(g.B, make([]float64, sizes[l+1]))
	}
	return g
}

// NumParams returns the total number of gradient entries.
func (g *Grads) NumParams() int {
	n := 0
	for l := range g.W {
		n += len(g.W[l]) + len(g.B[l])
	}
	return n
}

// Zero clears the gradients in place for the next batch.
//
//vet:noalloc
func (g *Grads) Zero() {
	for l := range g.W {
		clear(g.W[l])
		clear(g.B[l])
	}
}

// Flat flattens the gradients in Params order.
//
//lint:ignore unused the flat-vector gradient the batch, gradient-check and legacy-SGD reference tests compare against
func (g *Grads) Flat() []float64 {
	out := make([]float64, 0, g.NumParams())
	for l := range g.W {
		out = append(out, g.W[l]...)
		out = append(out, g.B[l]...)
	}
	return out
}

// DeltaInto writes this model's parameters minus base into dst, both in
// Params order (the client-update delta, computed without flattening).
//
//vet:noalloc
func (m *MLP) DeltaInto(base, dst []float64) {
	if len(base) != m.NumParams() || len(dst) != len(base) {
		panic(fmt.Sprintf("ml: DeltaInto length %d/%d want %d", len(base), len(dst), m.NumParams()))
	}
	off := 0
	for l := range m.W {
		off += copy(dst[off:], m.W[l])
		off += copy(dst[off:], m.B[l])
	}
	axpy(-1, base, dst)
}

// Loss computes the average cross-entropy loss without gradients.
//
//lint:ignore unused the reference loss of the gradient check and the training tests (with Forward and Softmax under it)
func (m *MLP) Loss(X [][]float64, Y []int) float64 {
	if len(Y) == 0 {
		return 0
	}
	loss := 0.0
	for i := range Y {
		probs := Softmax(m.Forward(X[i]))
		p := probs[Y[i]]
		if p < 1e-15 {
			p = 1e-15
		}
		loss += -math.Log(p)
	}
	return loss / float64(len(Y))
}
