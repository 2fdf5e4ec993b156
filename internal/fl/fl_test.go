package fl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"totoro/internal/ml"
)

// merge is the allocating fold the tests compare against: it touches
// neither argument.
func merge(a, b *Accum) *Accum {
	if a == nil || b == nil {
		return MergeInPlace(a, b)
	}
	out := &Accum{WeightedSum: append([]float64(nil), a.WeightedSum...), Samples: a.Samples, Count: a.Count}
	out.Add(b)
	return out
}

func TestAccumMergeAssociativeCommutative(t *testing.T) {
	mk := func(vals []float64, samples int) *Accum {
		return NewAccum(Update{Delta: vals, Samples: samples})
	}
	a := mk([]float64{1, 2}, 10)
	b := mk([]float64{3, -1}, 5)
	c := mk([]float64{-2, 4}, 20)
	left := merge(merge(a, b), c)
	right := merge(a, merge(b, c))
	swapped := merge(c, merge(b, a))
	for i := range left.WeightedSum {
		if math.Abs(left.WeightedSum[i]-right.WeightedSum[i]) > 1e-12 ||
			math.Abs(left.WeightedSum[i]-swapped.WeightedSum[i]) > 1e-12 {
			t.Fatal("merge not associative/commutative")
		}
	}
	if left.Samples != 35 || left.Count != 3 {
		t.Fatalf("counters wrong: %+v", left)
	}
}

func TestMergeNilIdentity(t *testing.T) {
	a := NewAccum(Update{Delta: []float64{1}, Samples: 2})
	if MergeInPlace(nil, a) != a || MergeInPlace(a, nil) != a {
		t.Fatal("nil is not the merge identity")
	}
	if MergeInPlace(nil, nil) != nil {
		t.Fatal("nil+nil")
	}
}

func TestMeanDeltaWeighted(t *testing.T) {
	a := NewAccum(Update{Delta: []float64{1, 1}, Samples: 30})
	b := NewAccum(Update{Delta: []float64{4, 0}, Samples: 10})
	mean := make([]float64, 2)
	merge(a, b).ApplyMean(mean)
	// (1*30 + 4*10)/40 = 1.75 ; (1*30+0)/40 = 0.75
	if math.Abs(mean[0]-1.75) > 1e-12 || math.Abs(mean[1]-0.75) > 1e-12 {
		t.Fatalf("mean %v", mean)
	}
}

func TestMeanDeltaOfIdenticalUpdatesIsIdentity(t *testing.T) {
	f := func(raw []float64, reps uint8) bool {
		if len(raw) == 0 || reps == 0 {
			return true
		}
		var agg *Accum
		for i := 0; i < int(reps%7)+1; i++ {
			agg = merge(agg, NewAccum(Update{Delta: raw, Samples: 13}))
		}
		for _, v := range raw {
			// Skip inputs whose sample-weighted sum overflows float64.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e290 {
				return true
			}
		}
		mean := make([]float64, len(raw))
		agg.ApplyMean(mean)
		for i := range raw {
			if math.Abs(mean[i]-raw[i]) > 1e-9*(1+math.Abs(raw[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalTrainReducesClientLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := ml.SyntheticClusters(4, 8, 300, 0.4, rng)
	proto := ml.NewMLP([]int{8, 16, 4}, rng)
	global := proto.Params()
	u := LocalTrainWS(proto, global, ds, ClientConfig{LocalEpochs: 3, LR: 0.1}, rng, ml.NewWorkspace())
	if u.Samples != 300 {
		t.Fatalf("samples=%d", u.Samples)
	}
	after := proto.Clone()
	params := append([]float64(nil), global...)
	ml.Axpy(1, u.Delta, params)
	after.SetParams(params)
	base := proto.Clone()
	base.SetParams(global)
	if after.Loss(ds.X, ds.Y) >= base.Loss(ds.X, ds.Y) {
		t.Fatal("local training did not reduce the client's loss")
	}
	// The prototype itself must not be mutated.
	for i, v := range proto.Params() {
		if v != global[i] {
			t.Fatal("LocalTrain mutated the prototype")
		}
	}
}

func TestFederatedSessionConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	full := ml.SyntheticClusters(5, 16, 3000, 0.4, rng)
	train, test := full.Split(0.2, rng)
	clients := ml.DirichletPartition(train, 20, 1.0, rng)
	proto := ml.NewMLP([]int{16, 32, 5}, rng)
	s := NewSession(proto, clients, test, ClientConfig{LocalEpochs: 1, LR: 0.1, BatchSize: 20}, nil)
	first := s.Accuracy()
	var last RoundReport
	for r := 0; r < 12; r++ {
		last = s.Round(10, rng)
	}
	if last.Accuracy < 0.85 {
		t.Fatalf("federated accuracy %.3f after 12 rounds (start %.3f)", last.Accuracy, first)
	}
}

func TestFedProxReducesDriftUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := ml.SyntheticClusters(6, 12, 2400, 0.4, rng)
	train, test := full.Split(0.2, rng)
	clients := ml.DirichletPartition(train, 12, 0.1, rng) // heavy skew
	runWith := func(mu float64, seed int64) float64 {
		r := rand.New(rand.NewSource(seed))
		proto := ml.NewMLP([]int{12, 24, 6}, rand.New(rand.NewSource(99)))
		s := NewSession(proto, clients, test, ClientConfig{LocalEpochs: 3, LR: 0.1, ProxMu: mu}, nil)
		acc := 0.0
		for i := 0; i < 10; i++ {
			acc = s.Round(6, r).Accuracy
		}
		return acc
	}
	avg := runWith(0, 5)
	prox := runWith(0.5, 5)
	// Under extreme skew FedProx should not be catastrophically worse and
	// typically stabilizes training; we assert it stays within a small
	// margin or better.
	if prox < avg-0.15 {
		t.Fatalf("FedProx collapsed: %.3f vs FedAvg %.3f", prox, avg)
	}
}

func TestSessionRoundSelectsDistinctClients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shard := ml.SyntheticClusters(2, 4, 20, 0.4, rng)
	clients := make([]*ml.Dataset, 50)
	for i := range clients {
		clients[i] = shard
	}
	s := NewSession(ml.NewMLP([]int{4, 4, 2}, rng), clients, shard, ClientConfig{LR: 0.1}, nil)
	got := s.Round(20, rng).Selected
	if len(got) != 20 {
		t.Fatalf("selected %d", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if id < 0 || id >= len(clients) || seen[id] {
			t.Fatalf("selection %v: client %d out of range or chosen twice", got, id)
		}
		seen[id] = true
	}
	// k >= n takes everyone.
	if got := s.Round(100, rng).Selected; len(got) != 50 {
		t.Fatalf("overselect took %d of 50 clients", len(got))
	}
}

func TestTopKCompression(t *testing.T) {
	v := []float64{0.1, -5, 0.3, 4, -0.2, 0.05}
	recon, bytes := TopK{K: 2}.Apply(v)
	nz := 0
	for i, x := range recon {
		if x != 0 {
			nz++
			if x != v[i] {
				t.Fatal("kept value altered")
			}
		}
	}
	if nz != 2 || recon[1] != -5 || recon[3] != 4 {
		t.Fatalf("topk recon %v", recon)
	}
	if bytes >= 8*len(v) {
		t.Fatalf("topk bytes %d not smaller than dense %d", bytes, 8*len(v))
	}
	// K >= len degenerates to dense.
	recon2, _ := TopK{K: 10}.Apply(v)
	for i := range v {
		if recon2[i] != v[i] {
			t.Fatal("degenerate topk altered values")
		}
	}
}

func TestQuantizeInt8ErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, 500)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	recon, bytes := QuantizeInt8{}.Apply(v)
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	for i := range v {
		if math.Abs(recon[i]-v[i]) > scale/2+1e-12 {
			t.Fatalf("quantization error at %d: %v vs %v", i, recon[i], v[i])
		}
	}
	if bytes >= 8*len(v) {
		t.Fatalf("int8 bytes %d not smaller", bytes)
	}
	// All-zero input.
	z, _ := QuantizeInt8{}.Apply(make([]float64, 4))
	for _, x := range z {
		if x != 0 {
			t.Fatal("zero vector not preserved")
		}
	}
}

func TestCompressedSessionStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	full := ml.SyntheticClusters(4, 10, 1600, 0.4, rng)
	train, test := full.Split(0.2, rng)
	clients := ml.DirichletPartition(train, 10, 1.0, rng)
	proto := ml.NewMLP([]int{10, 20, 4}, rng)
	s := NewSession(proto, clients, test, ClientConfig{LR: 0.1}, QuantizeInt8{})
	var acc float64
	for r := 0; r < 10; r++ {
		acc = s.Round(8, rng).Accuracy
	}
	if acc < 0.8 {
		t.Fatalf("int8-compressed training accuracy %.3f", acc)
	}
}
