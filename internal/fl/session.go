package fl

import (
	"math/rand"

	"totoro/internal/ml"
	"totoro/internal/obs"
)

// Session drives the pure FL algorithm for one application — selection,
// local training, compression, aggregation, apply — with no networking or
// timing, for the experiments that study the algorithm alone. The engine
// and the centralized baseline do not go through it: their round handlers
// (trainRound/commit, clientRecv/serverRecv) call the same steps of
// this package themselves, so their comparison still isolates the system
// architecture.
type Session struct {
	Proto   *ml.MLP
	Global  []float64
	Clients []*ml.Dataset
	Test    *ml.Dataset
	Cfg     ClientConfig
	Comp    Compressor
	// Workers bounds the parallelism of client training within a round:
	// 0 means one worker per CPU, 1 forces the serial reference path.
	// Serial and parallel execution produce bit-identical models — each
	// client trains on a private rng derived from the round seed and its
	// ID, and updates are merged in selection order.
	Workers int
	// Metrics, when set, receives the session's telemetry: counters
	// fl.rounds / fl.participants / fl.update_bytes (over the updates
	// merged), an update-size histogram, and the fl.accuracy gauge. Nil
	// discards them.
	Metrics *obs.Registry

	round int
	eval  *ml.MLP
}

// NewSession initializes a session; proto supplies both architecture and
// the initial global parameters.
func NewSession(proto *ml.MLP, clients []*ml.Dataset, test *ml.Dataset, cfg ClientConfig, comp Compressor) *Session {
	if comp == nil {
		comp = NoCompression{}
	}
	return &Session{
		Proto:   proto,
		Global:  proto.Params(),
		Clients: clients,
		Test:    test,
		Cfg:     cfg,
		Comp:    comp,
	}
}

// RoundReport summarizes one completed round.
type RoundReport struct {
	Round      int
	Selected   []int
	UpdateSize int // compressed bytes of one client update
	Accuracy   float64
}

// Round executes one synchronous FL round with perRound participants, drawn
// uniformly without replacement (everyone when perRound covers the fleet),
// and returns its stats. Client training fans out across the training pool;
// every client draws from a private rng derived from this round's seed and
// its ID, and updates are merged in selection order, so the result is
// bit-identical at any worker count.
func (s *Session) Round(perRound int, rng *rand.Rand) RoundReport {
	s.round++
	var selected []int
	if n := len(s.Clients); perRound >= n {
		selected = make([]int, n)
		for i := range selected {
			selected[i] = i
		}
	} else {
		selected = rng.Perm(n)[:perRound]
	}
	roundSeed := rng.Int63()
	updates := make([]Update, len(selected))
	ForEach(len(selected), s.Workers, func(i int, ws *ml.Workspace) {
		id := selected[i]
		crng := ClientRNG(ws, roundSeed, s.round, uint64(id))
		updates[i] = LocalTrainWS(s.Proto, s.Global, s.Clients[id], s.Cfg, crng, ws)
	})
	// Telemetry counts what was merged, as the engine does.
	var agg *Accum
	updateBytes, sentBytes := 0, 0
	for _, u := range updates {
		if u.Samples == 0 {
			continue
		}
		recon, bytes := ApplyOwned(s.Comp, u.Delta)
		u.Delta = recon
		updateBytes = bytes
		sentBytes += bytes
		agg = MergeInPlace(agg, NewAccumOwning(u))
	}
	agg.ApplyMean(s.Global)
	merged := 0
	if agg != nil {
		merged = agg.Count
		Recycle(agg)
	}
	acc := s.Accuracy()
	s.Metrics.Counter("fl.rounds").Inc()
	s.Metrics.Counter("fl.participants").Add(int64(merged))
	s.Metrics.Counter("fl.update_bytes").Add(int64(sentBytes))
	s.Metrics.Histogram("fl.update_size", obs.ByteBuckets).Observe(float64(updateBytes))
	s.Metrics.Gauge("fl.accuracy").Set(acc)
	return RoundReport{
		Round:      s.round,
		Selected:   selected,
		UpdateSize: updateBytes,
		Accuracy:   acc,
	}
}

// Accuracy evaluates the current global model on the held-out test set.
func (s *Session) Accuracy() float64 {
	if s.eval == nil {
		s.eval = s.Proto.Clone()
	}
	s.eval.SetParams(s.Global)
	return Accuracy(s.eval, s.Test)
}
