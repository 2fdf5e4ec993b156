package totoro

import (
	"fmt"
	"math/rand"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// AppID names one FL application on the ring; it is the SHA-1 hash of the
// application's textual name and its creator (paper §4.3 step a).
type AppID = ids.ID

// NewAppID derives an application's ID from its name and creator key.
func NewAppID(name, creator string) AppID { return ids.Hash("FL application", name, creator) }

// NewZonalAppID derives an AppID that lives inside one zone of the
// multi-ring structure: the zone prefix is forced onto the hash, so the
// rendezvous node (master) is guaranteed to be inside the zone and
// zone-restricted policies keep all traffic there.
func NewZonalAppID(name, creator string, zone uint64, zoneBits int) AppID {
	return ids.MakeZoned(zone, zoneBits, ids.Hash("FL application", name, creator))
}

// AppSpec is the application descriptor the owner ships to the rendezvous
// master with CreateTree. It carries everything workers and the master
// need to run rounds: architecture, initial parameters, client guidance,
// and the owner's policies (§4.4 application-level customization).
type AppSpec struct {
	ID   AppID
	Name string
	// Sizes is the MLP architecture [in, hidden..., classes].
	Sizes []int
	// InitParams are the initial global parameters.
	InitParams []float64
	// Cfg is the client training configuration (the "client protocol":
	// download/upload/training configuration of §2.1).
	Cfg fl.ClientConfig
	// Participation is the fraction of subscribed workers that train each
	// round; workers self-select deterministically.
	Participation float64
	// TargetAccuracy stops training when reached (evaluated at the master).
	TargetAccuracy float64
	// MaxRounds bounds the run.
	MaxRounds int
	// Compressor names the update compression policy: "", "none", "topk",
	// "int8", "f32", or "delta-int8" (owner-specified compression function,
	// Table 2 Broadcast). "f32" and "delta-int8" map to real codec-v2 wire
	// encodings, so their byte costs are exact over tcpnet, not estimates.
	Compressor string
	// TopK is the sparsification budget when Compressor == "topk".
	TopK int
	// NoiseSigma > 0 makes workers add Gaussian noise to their updates —
	// the differential-privacy hook of §4.4.
	NoiseSigma float64
	// ZoneRestricted refuses subscriptions (and thus traffic) from outside
	// the AppID's zone; pair with NewZonalAppID.
	ZoneRestricted bool
	// TreeFanout caps children per node on this application's tree
	// (0 = the overlay's natural fanout). Set at CreateTree and propagated
	// to every member.
	TreeFanout int
	// RoundDeadline makes the application's rounds semi-synchronous: any
	// tree node flushes its partial aggregate after this long, so a
	// straggling or failed subtree delays a round by at most the deadline
	// instead of stalling it (§2.2.1's communication-protocol
	// customization). Zero keeps rounds fully synchronous.
	RoundDeadline time.Duration
	// MinParticipants is the round commit quorum: a deadline-flushed round
	// that merged fewer client updates than this is held open (bounded, see
	// engine round holds) so late partials — stragglers, workers back from
	// a healed partition — commit the round for real instead of the model
	// taking a nearly-empty step during a fault window. Zero or one commits
	// whatever a flush delivers.
	MinParticipants int
	// Seed roots every worker's deterministic per-round training rng (see
	// package doc: derived as (Seed, round, node address)).
	Seed int64
}

// SpecFromWorkload converts a workload.App (the experiment harness
// description) into the wire-level AppSpec.
func SpecFromWorkload(id AppID, app *workload.App) AppSpec {
	comp := ""
	topk := 0
	switch c := app.Comp.(type) {
	case fl.TopK:
		comp, topk = "topk", c.K
	case fl.QuantizeInt8:
		comp = "int8"
	case fl.Float32:
		comp = "f32"
	case fl.DeltaInt8:
		comp = "delta-int8"
	}
	return AppSpec{
		ID:              id,
		Name:            app.Name,
		Sizes:           app.Proto.Sizes,
		InitParams:      app.Proto.Params(),
		Cfg:             app.Cfg,
		Participation:   app.Participation,
		TargetAccuracy:  app.TargetAccuracy,
		MaxRounds:       app.MaxRounds,
		Compressor:      comp,
		TopK:            topk,
		MinParticipants: app.MinParticipants,
		Seed:            app.Seed,
	}
}

// compressor resolves the spec's named compression policy.
func (s AppSpec) compressor() fl.Compressor {
	switch s.Compressor {
	case "", "none":
		return fl.NoCompression{}
	case "topk":
		k := s.TopK
		if k == 0 {
			k = 64
		}
		return fl.TopK{K: k}
	case "int8":
		return fl.QuantizeInt8{}
	case "f32":
		return fl.Float32{}
	case "delta-int8":
		return fl.DeltaInt8{}
	}
	panic(fmt.Sprintf("totoro: unknown compressor %q", s.Compressor))
}

// WireSize charges architecture plus initial parameters.
func (s AppSpec) WireSize() int { return 64 + len(s.Name) + 4*len(s.Sizes) + 8*len(s.InitParams) }

// --- wire payloads of the FL driver (carried inside pub/sub messages) ---

// announceMsg is routed toward the AppID; the rendezvous node stores the
// spec and becomes the application's master.
type announceMsg struct {
	Spec AppSpec
}

func (a announceMsg) WireSize() int { return a.Spec.WireSize() }

// startMsg is routed toward the AppID to begin (or resume) training.
type startMsg struct {
	App AppID
}

// roundStart is multicast from the master down the tree each round: the
// current global model plus client guidance.
type roundStart struct {
	App           AppID
	Round         int
	Sizes         []int
	Params        []float64
	Cfg           fl.ClientConfig
	Participation float64
	Compressor    string
	TopK          int
	NoiseSigma    float64
	// Seed roots the deterministic per-client rng derivation for the round.
	Seed int64
}

func (r roundStart) WireSize() int { return 64 + 4*len(r.Sizes) + 8*len(r.Params) }

// updateAgg is the upstream aggregation payload: a partial FedAvg
// aggregate plus the wire bytes its current form costs. A leaf's update
// costs its compressed size; once partials merge, the dense aggregate
// size applies (in-network aggregation keeps it constant per hop).
type updateAgg struct {
	Bytes int
	Acc   *fl.Accum
}

func (u updateAgg) WireSize() int { return 24 + u.Bytes }

// mergeUpdates is the associative combiner installed per tree.
func mergeUpdates(a, b any) any {
	ua, okA := a.(updateAgg)
	ub, okB := b.(updateAgg)
	if !okA || !okB {
		// Mixed payloads (user objects): keep the latest.
		return b
	}
	// The combiner owns its left operand (pub/sub hands partial aggregates
	// over by reference and the sender never touches them again), so the
	// merge reuses ua's buffer instead of allocating O(P) per hop.
	merged := fl.MergeInPlace(ua.Acc, ub.Acc)
	return updateAgg{Acc: merged, Bytes: 24 + 8*len(merged.WeightedSum)}
}

// GaussianNoise perturbs a copy of delta with N(0, sigma²) noise — the
// worker-side differential-privacy mechanism (§4.4).
func GaussianNoise(delta []float64, sigma float64, rng *rand.Rand) []float64 {
	out := append([]float64(nil), delta...)
	addGaussianNoise(out, sigma, rng)
	return out
}

// addGaussianNoise is GaussianNoise applied in place, for hot paths that
// own the delta buffer.
func addGaussianNoise(delta []float64, sigma float64, rng *rand.Rand) {
	for i := range delta {
		delta[i] += rng.NormFloat64() * sigma
	}
}

// participates decides deterministically whether a worker trains in a
// round: a hash of (app, node, round) is compared against the
// participation fraction, so any observer can reproduce the selection
// without a central selector.
func participates(app AppID, node transport.Addr, round int, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	h := ids.Hash("selection", app.String(), string(node), fmt.Sprint(round))
	return float64(h.Hi>>11)/float64(1<<53) < fraction
}
