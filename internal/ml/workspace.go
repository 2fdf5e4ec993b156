package ml

import (
	"math"
	"math/rand"
	"slices"
)

// Workspace owns every scratch buffer one training worker needs — batch
// activation matrices, backprop delta matrices, gradient and momentum
// buffers, the mini-batch index/view slices, and a scratch model. Reusing
// one Workspace across batches (and across clients on the same worker)
// makes the training hot path allocation-free in steady state; a one-off
// caller passes a fresh NewWorkspace().
//
// A Workspace is not safe for concurrent use; give each worker goroutine
// its own (see fl's training pool).
type Workspace struct {
	sizes []int
	// nCap is the largest batch size the matrices below are shaped for.
	nCap int
	// actm[l] is the (nCap × Sizes[l]) batch activation matrix of layer
	// l's input (actm[0] holds the batch inputs, actm[L] the logits).
	actm [][]float64
	// deltaM0/deltaM1 are ping-pong (nCap × maxWidth) delta matrices.
	deltaM0, deltaM1 []float64
	grads            *Grads
	perm             []int
	bx               [][]float64
	by               []int
	model            *MLP
	opt              SGD
	// coef holds one example block's weight-gradient coefficients,
	// Al[(b+t)*in+i]·invN at coef[i*8+t], for the widest layer input.
	coef []float64
	// zeros is a never-written row as wide as the widest layer output.
	zeros []float64
	// act is CountCorrect's scratch (ActBuffer).
	act []float64
	// Rand is the worker's rng, which package fl reseeds for every client
	// job it runs on this workspace (fl.ClientRNG); nil until then.
	Rand *rand.Rand
}

// NewWorkspace returns an empty workspace; buffers are shaped lazily on
// first use and reshaped whenever the model architecture or batch size
// grows.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure shapes the architecture-dependent buffers.
//
//vet:noalloc amortized
func (ws *Workspace) ensure(sizes []int) {
	if slices.Equal(ws.sizes, sizes) {
		return
	}
	ws.sizes = append(ws.sizes[:0], sizes...)
	ws.nCap = 0 // force matrix reshape
	ws.actm = nil
	ws.grads = newGrads(sizes)
	L := len(sizes) - 1
	ws.coef = make([]float64, 8*slices.Max(sizes[:L]))
	ws.zeros = make([]float64, slices.Max(sizes[1:]))
	ws.model = &MLP{Sizes: append([]int(nil), sizes...)}
	ws.model.W, ws.model.B = nil, nil
	for l := 0; l < L; l++ {
		ws.model.W = append(ws.model.W, make([]float64, sizes[l]*sizes[l+1]))
		ws.model.B = append(ws.model.B, make([]float64, sizes[l+1]))
	}
}

// ensureBatch shapes the batch matrices for n examples of the given
// architecture.
//
//vet:noalloc amortized
func (ws *Workspace) ensureBatch(sizes []int, n int) {
	ws.ensure(sizes)
	if n <= ws.nCap {
		return
	}
	ws.nCap = n
	L := len(sizes) - 1
	ws.actm = make([][]float64, L+1)
	maxW := 0
	for l := 0; l <= L; l++ {
		ws.actm[l] = make([]float64, n*sizes[l])
		if sizes[l] > maxW {
			maxW = sizes[l]
		}
	}
	ws.deltaM0 = make([]float64, n*maxW)
	ws.deltaM1 = make([]float64, n*maxW)
}

// Model returns the workspace's scratch model shaped like sizes. Its
// weights are whatever the last user left; callers install parameters with
// SetParams before training.
func (ws *Workspace) Model(sizes []int) *MLP {
	ws.ensure(sizes)
	return ws.model
}

// ActBuffer returns the workspace's CountCorrect scratch for m, what
// m.ActBuffer would allocate, so evaluations that draw workspaces from a
// pool leave no garbage behind.
//
//vet:noalloc amortized
func (ws *Workspace) ActBuffer(m *MLP) []float64 {
	n := m.actLen()
	if cap(ws.act) < n {
		ws.act = make([]float64, n)
	}
	return ws.act[:n]
}

// Optimizer returns the workspace's reusable SGD configured for a new
// client: hyperparameters installed, momentum cleared, velocity buffer
// retained.
func (ws *Workspace) Optimizer(lr, momentum float64) *SGD {
	vel := ws.opt.vel
	ws.opt = SGD{LR: lr, Momentum: momentum, vel: vel}
	ws.opt.Reset()
	return &ws.opt
}

// permBuf returns the workspace's reusable permutation buffer of length n.
//
//vet:noalloc amortized
func (ws *Workspace) permBuf(n int) []int {
	if cap(ws.perm) < n {
		ws.perm = make([]int, n)
	}
	return ws.perm[:n]
}

// BackwardWS computes the average cross-entropy loss and its gradients over
// a mini-batch (rows of X with labels Y), overwriting g, with every
// intermediate buffer drawn from ws — zero allocations in steady state. The batch is processed
// batch-major (activation and delta matrices), so each weight row is
// streamed once per batch instead of once per example.
//
//vet:noalloc
func (m *MLP) BackwardWS(X [][]float64, Y []int, g *Grads, ws *Workspace) float64 {
	n := len(Y)
	if n == 0 {
		return 0
	}
	ws.ensureBatch(m.Sizes, n)
	L := len(m.W)
	invN := 1 / float64(n)

	// Forward: copy the batch into the contiguous input matrix, then
	// propagate layer by layer.
	in0 := m.Sizes[0]
	A0 := ws.actm[0]
	for b := 0; b < n; b++ {
		copy(A0[b*in0:b*in0+in0], X[b][:in0])
	}
	for l := 0; l < L; l++ {
		m.batchForward(l, n, ws.actm[l], ws.actm[l+1], l+1 < L)
	}

	// Softmax, loss, and the output-layer delta matrix (p − onehot).
	outL := m.Sizes[L]
	ZL := ws.actm[L]
	D := ws.deltaM0
	loss := 0.0
	for b := 0; b < n; b++ {
		z := ZL[b*outL : b*outL+outL]
		d := D[b*outL : b*outL+outL]
		softmaxInto(d, z)
		p := d[Y[b]]
		if p < 1e-15 {
			p = 1e-15
		}
		loss += -math.Log(p)
		d[Y[b]] -= 1
	}

	// Backward: walk layers down, computing gradients and the previous
	// layer's delta matrix. A layer's first example block adds to ws.zeros,
	// not to its gradients; what no first block covers is cleared.
	cur, spare := ws.deltaM0, ws.deltaM1
	for l := L - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		Al := ws.actm[l]

		// Bias gradients: invN-scaled column sums of the delta matrix.
		gb := g.B[l][:out]
		var cb [8]float64
		for t := range cb {
			cb[t] = invN
		}
		if n < 8 {
			clear(gb)
		}
		b := 0
		for from := ws.zeros; b+8 <= n; b += 8 {
			axpyN8Loop(cb[:], 0, cur[b*out:], out, from, 0, gb, 0, out, 1)
			from = gb
		}
		for ; b < n; b++ {
			axpy(invN, cur[b*out:b*out+out], gb)
		}

		// Weight gradients: gw[i] += Σ_b (Al[b][i]·invN) · delta row b, in
		// blocks of 8 examples. The block is the outer loop, so its rows of
		// cur stay in L1 while the gradient rows stream past once per block;
		// every gw[i][j] still takes its blocks in ascending b, so the sum
		// is the same sum. A block's coefficients are gathered first, then
		// one call runs it over every gradient row.
		gw, w := g.W[l], m.W[l]
		if n < 4 {
			clear(gw)
		}
		from, step := ws.zeros, 0
		b = 0
		for ; b+8 <= n; b += 8 {
			c := ws.coef[:8*in]
			for t := 0; t < 8; t++ {
				for i, a := range Al[(b+t)*in : (b+t)*in+in] {
					c[i*8+t] = a * invN
				}
			}
			axpyN8Loop(c, 8, cur[b*out:], out, from, step, gw, out, out, in)
			from, step = gw, out
		}
		if b+4 <= n {
			c := ws.coef[:4*in]
			for t := 0; t < 4; t++ {
				for i, a := range Al[(b+t)*in : (b+t)*in+in] {
					c[i*4+t] = a * invN
				}
			}
			axpyN4Loop(c, 4, cur[b*out:], out, from, step, gw, out, out, in)
			b += 4
		}
		for ; b < n; b++ {
			drow := cur[b*out : b*out+out]
			for i := 0; i < in; i++ {
				if ai := Al[b*in+i]; ai != 0 {
					axpy(ai*invN, drow, gw[i*out:i*out+out])
				}
			}
		}

		if l > 0 {
			// Previous-layer deltas: spare[b][i] = Σ_j w[i][j]·cur[b][j],
			// four rows of w at a time against every example in one call
			// (the rows stay in L1; cur is small), then gated by ReLU' over
			// the whole matrix (hidden activations are ReLU outputs, so the
			// gate is exactly Al > 0 — and 0 where Al is 0).
			i := 0
			for ; i+4 <= in; i += 4 {
				dotN4Loop(cur, out, w[i*out:], out, spare[i:], in, out, n)
			}
			for ; i < in; i++ {
				row := w[i*out : i*out+out]
				for b := 0; b < n; b++ {
					spare[b*in+i] = dot(row, cur[b*out:b*out+out])
				}
			}
			reluGate(spare[:n*in], Al)
			cur, spare = spare, cur
		}
	}
	return loss * invN
}

// batchForward computes layer l's outputs for all n examples: Z = A·W + b
// (with optional ReLU), input-blocked ×8 so each weight row is loaded once
// per batch and each output row is touched once per 8 input units; one
// call runs a block over every example.
//
//vet:noalloc
func (m *MLP) batchForward(l, n int, A, Z []float64, relu bool) {
	in, out := m.Sizes[l], m.Sizes[l+1]
	bias := m.B[l]
	for b := 0; b < n; b++ {
		copy(Z[b*out:b*out+out], bias)
	}
	w := m.W[l]
	i := 0
	for ; i+8 <= in; i += 8 {
		axpyN8Loop(A[i:], in, w[i*out:], out, Z, out, Z, out, out, n)
	}
	if i+4 <= in {
		axpyN4Loop(A[i:], in, w[i*out:], out, Z, out, Z, out, out, n)
		i += 4
	}
	for ; i < in; i++ {
		row := w[i*out : i*out+out]
		for b := 0; b < n; b++ {
			if ai := A[b*in+i]; ai != 0 {
				axpy(ai, row, Z[b*out:b*out+out])
			}
		}
	}
	if relu {
		reluClamp(Z[:n*out])
	}
}

// TrainEpochWS runs one epoch of mini-batch SGD over the dataset and
// returns the mean training loss. The proximal term μ/2·‖w − w₀‖² (FedProx,
// §4.3) is applied when mu > 0 with anchor w₀ = anchor. Every scratch
// buffer is drawn from ws and the SGD step is applied in place to the
// model's layers — no flat-vector round trips, zero steady-state
// allocations per batch.
//
//vet:noalloc
func TrainEpochWS(m *MLP, d *Dataset, batch int, opt *SGD, mu float64, anchor []float64, rng *rand.Rand, ws *Workspace) float64 {
	n := len(d.Y)
	if n == 0 {
		return 0
	}
	if batch <= 0 || batch > n {
		batch = n
	}
	ws.ensure(m.Sizes)
	order := ws.permBuf(n)
	permInto(order, rng)
	totalLoss := 0.0
	batches := 0
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		bx, by := ws.bx[:0], ws.by[:0]
		for _, idx := range order[start:end] {
			bx = append(bx, d.X[idx])
			by = append(by, d.Y[idx])
		}
		ws.bx, ws.by = bx, by
		totalLoss += m.BackwardWS(bx, by, ws.grads, ws)
		opt.StepModel(m, ws.grads, mu, anchor)
		batches++
	}
	return totalLoss / float64(batches)
}

// permInto fills p with a uniform permutation of [0, len(p)), consuming
// the rng stream exactly like rand.Perm but without allocating.
//
//vet:noalloc
func permInto(p []int, rng *rand.Rand) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
