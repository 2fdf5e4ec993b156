package fl

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"totoro/internal/ml"
	"totoro/internal/obs"
)

// evalFixture is a 64-48-62 model and a test set of n FEMNIST-like samples.
func evalFixture(n int) (*ml.MLP, *ml.Dataset) {
	rng := rand.New(rand.NewSource(int64(n) + 1))
	m := ml.NewMLP([]int{64, 48, 62}, rng)
	if n == 0 {
		return m, &ml.Dataset{}
	}
	return m, ml.FEMNISTLike(n, rng)
}

// TestAccuracyMatchesMLP: the shared evaluation counts integer hits, so it
// returns MLP.Accuracy's exact float whether the helper joins, stays out,
// or was queued and never ran — at every chunk boundary.
func TestAccuracyMatchesMLP(t *testing.T) {
	inline := func(job func(*ml.Workspace)) *Future {
		// The helper starts before the caller scores anything and takes
		// every chunk.
		f := &Future{done: make(chan struct{})}
		job(ml.NewWorkspace())
		close(f.done)
		return f
	}
	never := func(func(*ml.Workspace)) *Future {
		return &Future{done: make(chan struct{})} // never runs, never closes
	}
	out := func(func(*ml.Workspace)) *Future { return nil }
	for _, n := range []int{0, 1, 31, 32, 33, 450, 900} {
		m, test := evalFixture(n)
		want := m.Accuracy(test)
		got := map[string]float64{
			"pool":   Accuracy(m, test),
			"inline": sharedAccuracy(m, test, inline),
			"never":  sharedAccuracy(m, test, never),
			"out":    sharedAccuracy(m, test, out),
		}
		for how, acc := range got {
			if acc != want {
				t.Errorf("n=%d, helper %s: accuracy %v, MLP.Accuracy %v", n, how, acc, want)
			}
		}
	}
}

// TestAccuracyDoesNotWaitForABusyPool: with every worker stuck in a long
// job, Accuracy queues no helper and returns on the caller's own work.
func TestAccuracyDoesNotWaitForABusyPool(t *testing.T) {
	m, test := evalFixture(450)
	want := m.Accuracy(test)
	release := make(chan struct{})
	started := make(chan struct{}, Workers())
	var jobs []*Future
	for i := 0; i < Workers(); i++ {
		jobs = append(jobs, Go(func(*ml.Workspace) {
			started <- struct{}{}
			<-release
		}))
	}
	defer func() {
		close(release)
		for _, f := range jobs {
			f.Wait()
		}
	}()
	for range jobs {
		<-started
	}
	done := make(chan float64, 1)
	go func() { done <- Accuracy(m, test) }()
	select {
	case acc := <-done:
		if acc != want {
			t.Fatalf("accuracy %v, want %v", acc, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Accuracy waited for the saturated pool")
	}
}

// TestFreeListHandsOutSufficientCapacity: a recycled buffer too small for
// the request is never handed out.
func TestFreeListHandsOutSufficientCapacity(t *testing.T) {
	for i := 0; i < 100; i++ {
		Recycle(&Accum{WeightedSum: make([]float64, 3)})
		if b := deltaBuf(10); len(b) != 10 {
			t.Fatalf("deltaBuf(10) returned len %d", len(b))
		}
		Recycle(&Accum{WeightedSum: make([]float64, 20)})
		if b := deltaBuf(10); len(b) != 10 || cap(b) < 10 {
			t.Fatalf("deltaBuf(10) returned len %d cap %d", len(b), cap(b))
		}
	}
}

// TestSessionTelemetryCountsMergedUpdates: a selected client with an empty
// shard sends nothing, so it adds neither a participant nor update bytes.
func TestSessionTelemetryCountsMergedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	proto := ml.NewMLP([]int{64, 8, 62}, rng)
	clients := []*ml.Dataset{ml.FEMNISTLike(20, rng), {}, ml.FEMNISTLike(20, rng)}
	s := NewSession(proto, clients, ml.FEMNISTLike(40, rng), ClientConfig{}, nil)
	s.Metrics = obs.New(0)
	rep := s.Round(len(clients), rng)
	if len(rep.Selected) != 3 {
		t.Fatalf("selected %v, want all three clients", rep.Selected)
	}
	if got := s.Metrics.Counter("fl.participants").Value(); got != 2 {
		t.Errorf("fl.participants %d, want 2", got)
	}
	if got, want := s.Metrics.Counter("fl.update_bytes").Value(), int64(2*8*proto.NumParams()); got != want {
		t.Errorf("fl.update_bytes %d, want %d", got, want)
	}
}

// BenchmarkAccuracy scores 450 samples on 64-h-62 models spanning the
// benchmark workloads' evaluation sizes (kmacs: thousands of multiply-adds),
// on the caller alone and shared with an idle pool worker.
func BenchmarkAccuracy(b *testing.B) {
	for _, hidden := range []int{4, 16, 48, 128, 256} {
		rng := rand.New(rand.NewSource(1))
		m := ml.NewMLP([]int{64, hidden, 62}, rng)
		test := ml.FEMNISTLike(450, rng)
		name := "h" + strconv.Itoa(hidden) + "/kmacs=" + strconv.Itoa(m.NumParams()*450/1000)
		b.Run(name+"/alone", func(b *testing.B) {
			for b.Loop() {
				m.Accuracy(test)
			}
		})
		b.Run(name+"/shared", func(b *testing.B) {
			for b.Loop() {
				Accuracy(m, test)
			}
		})
	}
}
