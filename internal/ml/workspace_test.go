package ml

import (
	"math"
	"math/rand"
	"testing"
)

// referenceBackward is the original per-example backprop, kept verbatim as
// the oracle for the batched workspace implementation.
// zeroedGrads returns ws's gradient buffer shaped like sizes, zeroed.
func zeroedGrads(ws *Workspace, sizes []int) *Grads {
	ws.ensure(sizes)
	for l := range ws.grads.W {
		clear(ws.grads.W[l])
		clear(ws.grads.B[l])
	}
	return ws.grads
}

func referenceBackward(m *MLP, X [][]float64, Y []int, g *Grads) float64 {
	n := len(Y)
	if n == 0 {
		return 0
	}
	L := len(m.W)
	loss := 0.0
	acts := make([][]float64, L+1)
	for idx := 0; idx < n; idx++ {
		acts[0] = X[idx]
		for l := 0; l < L; l++ {
			acts[l+1] = m.layerForward(l, acts[l], l+1 < L)
		}
		probs := Softmax(acts[L])
		p := probs[Y[idx]]
		if p < 1e-15 {
			p = 1e-15
		}
		loss += -math.Log(p)
		delta := make([]float64, len(probs))
		copy(delta, probs)
		delta[Y[idx]] -= 1
		for l := L - 1; l >= 0; l-- {
			in, out := m.Sizes[l], m.Sizes[l+1]
			a := acts[l]
			gw, gb := g.W[l], g.B[l]
			for j := 0; j < out; j++ {
				gb[j] += delta[j] / float64(n)
			}
			for i := 0; i < in; i++ {
				if a[i] == 0 {
					continue
				}
				row := gw[i*out : (i+1)*out]
				scale := a[i] / float64(n)
				for j := 0; j < out; j++ {
					row[j] += scale * delta[j]
				}
			}
			if l > 0 {
				w := m.W[l]
				prev := make([]float64, in)
				for i := 0; i < in; i++ {
					if a[i] <= 0 {
						continue
					}
					row := w[i*out : (i+1)*out]
					s := 0.0
					for j := 0; j < out; j++ {
						s += row[j] * delta[j]
					}
					prev[i] = s
				}
				delta = prev
			}
		}
	}
	return loss / float64(n)
}

func randomBatch(sizes []int, n int, rng *rand.Rand) (*MLP, [][]float64, []int) {
	m := NewMLP(sizes, rng)
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := range X {
		X[i] = make([]float64, sizes[0])
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		Y[i] = rng.Intn(sizes[len(sizes)-1])
	}
	return m, X, Y
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return d / scale
}

// TestBackwardWSMatchesReference proves the batched, workspace-reusing
// backprop computes the same gradients as the transparent per-example
// implementation across architectures and batch sizes (including odd
// remainders that exercise the scalar kernel tails).
func TestBackwardWSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		sizes []int
		n     int
	}{
		{[]int{64, 48, 62}, 20},
		{[]int{64, 48, 62}, 1},
		{[]int{40, 24, 35}, 13},
		{[]int{9, 7, 5, 3}, 6},
		{[]int{5, 4}, 3},
	}
	ws := NewWorkspace()
	for _, tc := range cases {
		m, X, Y := randomBatch(tc.sizes, tc.n, rng)
		ref := newGrads(m.Sizes)
		refLoss := referenceBackward(m, X, Y, ref)
		got := zeroedGrads(ws, m.Sizes)
		gotLoss := m.BackwardWS(X, Y, got, ws)
		if d := relDiff(refLoss, gotLoss); d > 1e-12 {
			t.Errorf("sizes=%v n=%d: loss mismatch ref=%v got=%v (rel %g)", tc.sizes, tc.n, refLoss, gotLoss, d)
		}
		for l := range ref.W {
			for i := range ref.W[l] {
				if d := relDiff(ref.W[l][i], got.W[l][i]); d > 1e-12 {
					t.Fatalf("sizes=%v n=%d: gW[%d][%d] ref=%v got=%v (rel %g)", tc.sizes, tc.n, l, i, ref.W[l][i], got.W[l][i], d)
				}
			}
			for i := range ref.B[l] {
				if d := relDiff(ref.B[l][i], got.B[l][i]); d > 1e-12 {
					t.Fatalf("sizes=%v n=%d: gB[%d][%d] ref=%v got=%v (rel %g)", tc.sizes, tc.n, l, i, ref.B[l][i], got.B[l][i], d)
				}
			}
		}
	}
}

// TestBackwardWorkspaceReuseDeterministic proves a reused (dirty)
// workspace yields bit-identical results to a fresh one.
func TestBackwardWorkspaceReuseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	// Dirty the workspace with a different architecture and batch size.
	m0, X0, Y0 := randomBatch([]int{30, 17, 9}, 27, rng)
	m0.BackwardWS(X0, Y0, zeroedGrads(ws, m0.Sizes), ws)

	m, X, Y := randomBatch([]int{64, 48, 62}, 20, rng)
	reused := zeroedGrads(ws, m.Sizes)
	lossReused := m.BackwardWS(X, Y, reused, ws)
	fresh := NewWorkspace()
	g := zeroedGrads(fresh, m.Sizes)
	lossFresh := m.BackwardWS(X, Y, g, fresh)
	if lossReused != lossFresh {
		t.Errorf("loss: reused=%v fresh=%v", lossReused, lossFresh)
	}
	for l := range g.W {
		for i := range g.W[l] {
			if g.W[l][i] != reused.W[l][i] {
				t.Fatalf("gW[%d][%d]: reused=%v fresh=%v", l, i, reused.W[l][i], g.W[l][i])
			}
		}
	}
}

// TestStepModelMatchesFlatStep proves the in-place SGD step is
// bit-identical to the legacy Params/Flat/Step/SetParams round trip,
// including momentum, weight decay, and the FedProx proximal term.
func TestStepModelMatchesFlatStep(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, mu := range []float64{0, 0.01} {
		m, X, Y := randomBatch([]int{12, 10, 7}, 9, rng)
		legacy := m.Clone()
		anchor := m.Params()
		// Perturb so the proximal pull is non-zero after the first step.
		for i := range anchor {
			anchor[i] += 0.01 * rng.NormFloat64()
		}
		inPlace := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
		flat := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
		ws := NewWorkspace()
		for step := 0; step < 3; step++ {
			g := zeroedGrads(ws, m.Sizes)
			m.BackwardWS(X, Y, g, ws)
			inPlace.StepModel(m, g, mu, anchor)

			lg := newGrads(legacy.Sizes)
			legacy.BackwardWS(X, Y, lg, NewWorkspace())
			flatG := lg.Flat()
			params := legacy.Params()
			if mu > 0 {
				for i := range flatG {
					flatG[i] += mu * (params[i] - anchor[i])
				}
			}
			flat.Step(params, flatG)
			legacy.SetParams(params)
		}
		got, want := m.Params(), legacy.Params()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mu=%v: param %d in-place=%v legacy=%v", mu, i, got[i], want[i])
			}
		}
	}
}

// TestPermIntoMatchesRandPerm proves permInto consumes the rng stream
// exactly like rand.Perm, so reusing the buffer cannot shift downstream
// random draws.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 50} {
		a := rand.New(rand.NewSource(99))
		b := rand.New(rand.NewSource(99))
		want := a.Perm(n)
		got := make([]int, n)
		permInto(got, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: perm[%d]=%d want %d", n, i, got[i], want[i])
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: rng streams diverged after permutation", n)
		}
	}
}

// TestTrainEpochWSMatchesLegacySemantics runs a reused workspace with its
// own optimizer and a fresh workspace per epoch with a plain SGD side by
// side from identical starting points and checks they produce
// bit-identical models.
func TestTrainEpochWSMatchesLegacySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := FEMNISTLike(50, rng)
	m1 := NewMLP([]int{64, 48, 62}, rng)
	m2 := m1.Clone()
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	opt1 := ws.Optimizer(0.05, 0.5)
	opt2 := &SGD{LR: 0.05, Momentum: 0.5}
	for e := 0; e < 2; e++ {
		TrainEpochWS(m1, d, 20, opt1, 0, nil, r1, ws)
		TrainEpochWS(m2, d, 20, opt2, 0, nil, r2, NewWorkspace())
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d: reused workspace=%v fresh=%v", i, p1[i], p2[i])
		}
	}
}
