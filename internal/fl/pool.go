package fl

import (
	"runtime"
	"sync"
	"sync/atomic"

	"totoro/internal/ml"
)

// Training pool: a process-wide bounded set of worker slots that fans
// client training across real CPUs. Jobs must be pure functions of their
// captured inputs plus the workspace they are handed — determinism then
// holds regardless of scheduling, and callers impose a deterministic
// result order themselves (e.g. merging updates in client order).

// Workers returns the pool's parallelism: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

var (
	poolOnce  sync.Once
	poolMu    sync.Mutex
	poolCond  *sync.Cond
	poolQueue []func(ws *ml.Workspace) // FIFO of pending jobs
	poolIdle  int                      // workers parked in poolCond.Wait
	wsPool    = sync.Pool{New: func() any { return ml.NewWorkspace() }}
)

// startWorkers lazily spins up the fixed worker set: one long-lived
// goroutine per slot, each draining the shared queue. Goroutine count is
// bounded for the life of the process no matter how many jobs the
// simulators submit eagerly at round start, and the queue preserves FIFO
// submission order.
func startWorkers() {
	poolOnce.Do(func() {
		poolCond = sync.NewCond(&poolMu)
		n := Workers()
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			//lint:ignore gofunc this IS the supervised pool: the one place allowed to spawn its fixed worker set
			go poolWorker()
		}
	})
}

func poolWorker() {
	for {
		poolMu.Lock()
		for len(poolQueue) == 0 {
			poolIdle++
			poolCond.Wait()
			poolIdle--
		}
		job := poolQueue[0]
		poolQueue[0] = nil // release the popped job for GC
		poolQueue = poolQueue[1:]
		if len(poolQueue) == 0 {
			poolQueue = nil // drop the drained backing array
		}
		poolMu.Unlock()
		ws := wsPool.Get().(*ml.Workspace)
		job(ws)
		wsPool.Put(ws)
	}
}

// Future is a handle to a job submitted with Go.
type Future struct {
	done chan struct{}
}

// Wait blocks until the job has finished. The channel close gives the
// caller a happens-before edge on everything the job wrote.
func (f *Future) Wait() { <-f.done }

// Go enqueues job for the worker pool, which hands it a recycled
// per-worker workspace; submission never blocks. Submit the job at the
// moment its inputs are known and Wait at the point the result is needed;
// the simulators use this to overlap client training with (virtual) time.
// Jobs must not Wait on other pool jobs: with every worker parked in such
// a Wait the queue would deadlock.
func Go(job func(ws *ml.Workspace)) *Future { return submit(job, false) }

// goIfIdle is Go, but only if a worker is parked and no job is queued at
// the moment of the call; otherwise it queues nothing and returns nil.
func goIfIdle(job func(ws *ml.Workspace)) *Future { return submit(job, true) }

func submit(job func(ws *ml.Workspace), ifIdle bool) *Future {
	startWorkers()
	poolMu.Lock()
	if ifIdle && (poolIdle == 0 || len(poolQueue) > 0) {
		poolMu.Unlock()
		return nil
	}
	f := &Future{done: make(chan struct{})}
	poolQueue = append(poolQueue, func(ws *ml.Workspace) {
		job(ws)
		close(f.done)
	})
	poolMu.Unlock()
	poolCond.Signal()
	return f
}

// evalChunk is how many test samples one claim of a shared evaluation
// scores.
const evalChunk = 32

// Accuracy is model.Accuracy(test) with an idle worker lending a hand: the
// caller scores 32-sample chunks, and one helper job claims chunks beside it
// if a worker is idle and nothing is queued. The caller waits only for a
// helper that has started, so a busy pool never holds it up. Hit counts are
// integers, so the result is model.Accuracy's at any GOMAXPROCS. Both score
// into a pooled workspace's ActBuffer, so an evaluation leaves no garbage.
func Accuracy(model *ml.MLP, test *ml.Dataset) float64 {
	return sharedAccuracy(model, test, goIfIdle)
}

// sharedAccuracy is Accuracy with the helper's submission passed in, so
// tests can force the helper in or keep it out.
func sharedAccuracy(model *ml.MLP, test *ml.Dataset, spawn func(func(*ml.Workspace)) *Future) float64 {
	n := len(test.Y)
	if n == 0 {
		return 0
	}
	var next atomic.Int64 // first sample of the next unclaimed chunk
	score := func(ws *ml.Workspace) (hit int) {
		buf := ws.ActBuffer(model)
		for {
			lo := int(next.Add(evalChunk)) - evalChunk
			if lo >= n {
				return hit
			}
			hi := min(lo+evalChunk, n)
			hit += model.CountCorrect(test.X[lo:hi], test.Y[lo:hi], buf)
		}
	}
	var state atomic.Int32 // 0 queued, 1 started by the helper, 2 called off by the caller
	var helper *Future
	helped := 0 // read by the caller only after helper.Wait
	if n > evalChunk {
		helper = spawn(func(ws *ml.Workspace) {
			if state.CompareAndSwap(0, 1) {
				helped = score(ws)
			}
		})
	}
	ws := wsPool.Get().(*ml.Workspace)
	hit := score(ws)
	wsPool.Put(ws)
	// A helper that has not started is called off; one that has is scoring
	// its last chunk, and only that is waited for.
	if helper != nil && !state.CompareAndSwap(0, 2) {
		helper.Wait()
		hit += helped
	}
	return float64(hit) / float64(n)
}

// ForEach runs job(i, ws) for every i in [0, n) across the pool and
// returns when all are done. workers <= 0 means Workers(); workers == 1
// runs inline on the caller's goroutine (the serial reference path).
func ForEach(n, workers int, job func(i int, ws *ml.Workspace)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		ws := wsPool.Get().(*ml.Workspace)
		for i := 0; i < n; i++ {
			job(i, ws)
		}
		wsPool.Put(ws)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//lint:ignore gofunc ForEach's own fan-out: bounded by Workers() and joined before return
		go func() {
			defer wg.Done()
			ws := wsPool.Get().(*ml.Workspace)
			defer wsPool.Put(ws)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i, ws)
			}
		}()
	}
	wg.Wait()
}
