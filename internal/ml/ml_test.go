package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c int16) bool {
		p := Softmax([]float64{float64(a) / 100, float64(b) / 100, float64(c) / 100})
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	p := Softmax([]float64{1000, 1001, 999})
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflowed")
		}
	}
	if p[1] <= p[0] || p[0] <= p[2] {
		t.Fatal("softmax ordering wrong")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{5, 7, 3}, rng)
	p := m.Params()
	if len(p) != m.NumParams() || m.NumParams() != 5*7+7+7*3+3 {
		t.Fatalf("NumParams=%d", m.NumParams())
	}
	m2 := NewMLP([]int{5, 7, 3}, rng)
	m2.SetParams(p)
	p2 := m2.Params()
	for i := range p {
		if p[i] != p2[i] {
			t.Fatal("params roundtrip mismatch")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{3, 4, 2}, rng)
	c := m.Clone()
	c.W[0][0] += 1
	if m.W[0][0] == c.W[0][0] {
		t.Fatal("clone shares weight storage")
	}
}

// TestGradientCheck compares analytic gradients against central finite
// differences on a tiny model — the canonical backprop correctness test.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{4, 6, 3}, rng)
	X := [][]float64{
		{0.5, -1.2, 0.3, 0.9},
		{-0.4, 0.8, -0.1, 0.2},
		{1.1, 0.05, -0.7, -0.3},
	}
	Y := []int{0, 2, 1}
	g := newGrads(m.Sizes)
	m.BackwardWS(X, Y, g, NewWorkspace())
	analytic := g.Flat()
	params := m.Params()
	const eps = 1e-6
	for _, i := range []int{0, 3, 11, 17, len(params) - 1, len(params) / 2} {
		orig := params[i]
		params[i] = orig + eps
		m.SetParams(params)
		lPlus := m.Loss(X, Y)
		params[i] = orig - eps
		m.SetParams(params)
		lMinus := m.Loss(X, Y)
		params[i] = orig
		m.SetParams(params)
		numeric := (lPlus - lMinus) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("grad mismatch at %d: numeric %v analytic %v", i, numeric, analytic[i])
		}
	}
}

func TestTrainingLearnsClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := SyntheticClusters(5, 16, 1500, 0.4, rng)
	train, test := ds.Split(0.2, rng)
	m := NewMLP([]int{16, 32, 5}, rng)
	before := m.Accuracy(test)
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	for epoch := 0; epoch < 15; epoch++ {
		TrainEpochWS(m, train, 20, opt, 0, nil, rng, NewWorkspace())
	}
	after := m.Accuracy(test)
	if before > 0.5 {
		t.Fatalf("untrained accuracy suspiciously high: %v", before)
	}
	if after < 0.9 {
		t.Fatalf("trained accuracy %v < 0.9", after)
	}
}

func TestTrainEpochReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := SyntheticClusters(4, 8, 400, 0.3, rng)
	m := NewMLP([]int{8, 16, 4}, rng)
	opt := &SGD{LR: 0.05}
	l0 := m.Loss(ds.X, ds.Y)
	for e := 0; e < 5; e++ {
		TrainEpochWS(m, ds, 32, opt, 0, nil, rng, NewWorkspace())
	}
	l1 := m.Loss(ds.X, ds.Y)
	if l1 >= l0 {
		t.Fatalf("loss did not fall: %v -> %v", l0, l1)
	}
}

func TestProximalTermPullsTowardAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := SyntheticClusters(3, 6, 200, 0.3, rng)
	anchorModel := NewMLP([]int{6, 8, 3}, rng)
	anchor := anchorModel.Params()

	free := anchorModel.Clone()
	prox := anchorModel.Clone()
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	for e := 0; e < 5; e++ {
		TrainEpochWS(free, ds, 16, &SGD{LR: 0.1}, 0, nil, rngA, NewWorkspace())
		TrainEpochWS(prox, ds, 16, &SGD{LR: 0.1}, 1.0, anchor, rngB, NewWorkspace())
	}
	dFree := l2dist(free.Params(), anchor)
	dProx := l2dist(prox.Params(), anchor)
	if dProx >= dFree {
		t.Fatalf("FedProx term did not constrain drift: prox %v free %v", dProx, dFree)
	}
}

func l2dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := []float64{10, -10}
	g := []float64{0, 0}
	opt := &SGD{LR: 0.1, WeightDecay: 0.5}
	opt.Step(p, g)
	if math.Abs(p[0]) >= 10 || math.Abs(p[1]) >= 10 {
		t.Fatal("weight decay did not shrink parameters")
	}
}

func TestDirichletPartitionCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := SyntheticClusters(10, 4, 2000, 0.5, rng)
	parts := DirichletPartition(ds, 20, 0.5, rng)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != ds.Len() {
		t.Fatalf("partition lost examples: %d != %d", total, ds.Len())
	}
}

func TestDirichletAlphaControlsSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := SyntheticClusters(10, 4, 5000, 0.5, rng)
	skew := func(alpha float64) float64 {
		parts := DirichletPartition(ds, 10, alpha, rand.New(rand.NewSource(10)))
		// Mean (over clients) of the max class share within the client.
		total := 0.0
		counted := 0
		for _, p := range parts {
			if p.Len() == 0 {
				continue
			}
			counts := make([]int, ds.NumClasses)
			for _, y := range p.Y {
				counts[y]++
			}
			maxc := 0
			for _, c := range counts {
				if c > maxc {
					maxc = c
				}
			}
			total += float64(maxc) / float64(p.Len())
			counted++
		}
		return total / float64(counted)
	}
	if skew(0.1) <= skew(100.0) {
		t.Fatalf("alpha=0.1 skew %v not above alpha=100 skew %v", skew(0.1), skew(100.0))
	}
}

func TestUntrainedAccuracyNearChance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := SyntheticClusters(10, 16, 2000, 0.5, rng)
	m := NewMLP([]int{16, 16, 10}, rng)
	acc := m.Accuracy(ds)
	if acc > 0.35 {
		t.Fatalf("untrained accuracy %v far above chance", acc)
	}
}

func TestDatasetGeneratorsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := FEMNISTLike(100, rng)
	if f.NumClasses != 62 || f.Dim != 64 || f.Len() != 100 {
		t.Fatalf("FEMNISTLike shape: %+v", f)
	}
	s := SpeechLike(50, rng)
	if s.NumClasses != 35 || s.Dim != 40 || s.Len() != 50 {
		t.Fatalf("SpeechLike shape: %+v", s)
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := SyntheticClusters(3, 4, 100, 0.5, rng)
	train, test := ds.Split(0.25, rng)
	if train.Len()+test.Len() != 100 || test.Len() != 25 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
}
