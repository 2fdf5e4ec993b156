package fl

import (
	"math/rand"
	"testing"

	"totoro/internal/ml"
)

// runSessionRounds executes a fixed federated workload at the given worker
// count and returns the final global parameters.
func runSessionRounds(t *testing.T, workers, rounds int) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	proto := ml.NewMLP([]int{64, 48, 62}, rng)
	full := ml.FEMNISTLike(400, rng)
	train, test := full.Split(0.2, rng)
	clients := ml.DirichletPartition(train, 12, 1.0, rng)
	s := NewSession(proto, clients, test, ClientConfig{LocalEpochs: 1, LR: 0.1, BatchSize: 20}, nil)
	s.Workers = workers
	roundRng := rand.New(rand.NewSource(77))
	for r := 0; r < rounds; r++ {
		s.Round(8, roundRng)
	}
	return append([]float64(nil), s.Global...)
}

// TestRoundParallelMatchesSerial proves a round's result is independent of
// training parallelism: the serial reference path (Workers=1) and a wide
// pool produce bit-identical global models, because every client trains on
// a private derived rng and updates merge in selection order. Run with
// -race this also exercises the pool for data races.
func TestRoundParallelMatchesSerial(t *testing.T) {
	serial := runSessionRounds(t, 1, 4)
	parallel := runSessionRounds(t, 8, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("param %d diverged: serial=%v parallel=%v", i, serial[i], parallel[i])
		}
	}
}

// TestDeriveSeedIndependence spot-checks the derivation: distinct clients,
// rounds, and app seeds land on distinct streams, and the same triple
// always lands on the same stream.
func TestDeriveSeedIndependence(t *testing.T) {
	if DeriveSeed(1, 1, 1) != DeriveSeed(1, 1, 1) {
		t.Fatal("derivation not deterministic")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for round := 0; round < 4; round++ {
			for tag := uint64(0); tag < 4; tag++ {
				s := DeriveSeed(seed, round, tag)
				if s < 0 {
					t.Fatalf("negative derived seed %d", s)
				}
				if seen[s] {
					t.Fatalf("collision at (%d,%d,%d)", seed, round, tag)
				}
				seen[s] = true
			}
		}
	}
}

// TestForEachCoversAllIndices checks the pool visits every index exactly
// once at any worker count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		hits := make([]int32, 137)
		ForEach(len(hits), workers, func(i int, ws *ml.Workspace) {
			hits[i]++ // distinct i per call; no racing writes to one element
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestAccumAddMatchesMerge proves the in-place fold computes the same
// aggregate as the allocating one.
func TestAccumAddMatchesMerge(t *testing.T) {
	u1 := Update{Delta: []float64{1, -2, 3}, Samples: 10}
	u2 := Update{Delta: []float64{0.5, 0.25, -1}, Samples: 30}
	pure := merge(NewAccum(u1), NewAccum(u2))
	inPlace := NewAccumOwning(Update{Delta: append([]float64(nil), u1.Delta...), Samples: u1.Samples})
	inPlace.Add(NewAccum(u2))
	if pure.Samples != inPlace.Samples || pure.Count != inPlace.Count {
		t.Fatalf("counters: pure=%+v inPlace=%+v", pure, inPlace)
	}
	for i := range pure.WeightedSum {
		if pure.WeightedSum[i] != inPlace.WeightedSum[i] {
			t.Fatalf("sum[%d]: pure=%v inPlace=%v", i, pure.WeightedSum[i], inPlace.WeightedSum[i])
		}
	}
	if got := MergeInPlace(nil, pure); got != pure {
		t.Fatal("MergeInPlace(nil, b) should return b")
	}
	if got := MergeInPlace(pure, nil); got != pure {
		t.Fatal("MergeInPlace(a, nil) should return a")
	}
}
