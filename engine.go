package totoro

import (
	"fmt"
	"slices"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/mastership"
	"totoro/internal/ml"
	"totoro/internal/obs"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// Options configures one Engine (one edge node's protocol stack).
type Options struct {
	// Ring configures the Pastry-style overlay (B controls tree fanout:
	// fanout = 2^B, the paper's 8/16/32 settings).
	Ring ring.Config
	// PubSub configures the forest layer (keep-alives, aggregation
	// timeouts); a tree's fanout cap is its owner's (AppSpec.TreeFanout).
	PubSub pubsub.Config
	// Speed is this node's compute speed factor (1 = nominal).
	Speed float64
	// ZoneBits is the multi-ring zone prefix width; 0 disables zone
	// enforcement.
	ZoneBits int
	// Queue, when set, is a compute queue shared with other engines on the
	// same physical host — the paper's virtual-node mechanism for
	// heterogeneous hardware (§7.5): a resource-rich machine runs several
	// logical P2P nodes that serialize their local training on the shared
	// CPU. Nil gives the engine its own queue.
	Queue *workload.ComputeQueue
	// Eval scores an application's global parameters (test accuracy). It
	// is instrumentation: typically installed by the Cluster, it runs at
	// round boundaries on the master and costs no simulated time.
	Eval func(app AppID, params []float64) float64
	// Replicas is how many leaf-set successors receive the master's
	// replicated round state each round, enabling master failover.
	// 0 (the default) disables replication: the replicas cost one model
	// upload per successor per round, which deployments that measure
	// bandwidth-bound behavior may not want to pay.
	Replicas int
	// ReplicaCheckInterval is how often a node holding a replica of a
	// live application probes ring ownership of the app key to detect a
	// dead master (0 = 500ms).
	ReplicaCheckInterval time.Duration
	// FailoverGrace is how long a freshly promoted master waits before
	// resuming rounds, giving orphaned workers time to re-attach to the
	// new tree root (0 = 1s).
	FailoverGrace time.Duration
	// Store, when set, journals every engine mutation (identity, worker
	// subscriptions, mastership images, round boundaries, accepted
	// replicas) so the node can recover its roles after a crash-restart.
	// Nil (the default) keeps the engine purely in-memory.
	Store store.Store
}

// Callbacks are the user-facing upcalls of Table 2 for custom
// (non-FL-driver) applications built directly on the forest.
type Callbacks struct {
	// OnBroadcast fires when a Broadcast object reaches this node
	// (Table 2 onBroadcast).
	OnBroadcast func(app AppID, obj any, depth int, subscriber bool)
	// OnAggregate fires at the tree root when a user aggregation round
	// completes (Table 2 onAggregate).
	OnAggregate func(app AppID, round int, obj any, count int)
	// Combine merges two user aggregation objects (owner's aggregation
	// function).
	Combine func(app AppID, a, b any) any
}

// TimerInfo is the progress snapshot handed to OnTimer callbacks
// (round_num, accuracy — Table 2 onTimer).
type TimerInfo struct {
	App      AppID
	Round    int
	Accuracy float64
	Done     bool
	Now      time.Duration
}

// role is one application at this node: the rules' state, plus what the
// executor keeps beside it.
type role struct {
	mastership.State[*replicaMsg]
	// pending folds the current round's flushes: a held round's tree keeps
	// forwarding disjoint supplementary partials, one flush each, and the
	// commit merges them all. flush is the one being stepped, for Fold.
	pending, flush updateAgg
	check          func() // the ownership probe's timer body
	checking       bool   // the probe is armed
}

type event = mastership.Event[*replicaMsg]

type workerState struct {
	shard *ml.Dataset
	// proto is the architecture handed to fl.LocalTrainWS: sizes only, no
	// weights — training runs in the pool workspace's own model, which is
	// overwritten with the round's parameters.
	proto      *ml.MLP
	restricted bool
	// gen counts roundStart announcements handled for this app. A training
	// job captures the generation it was started under and submits only if
	// no newer announcement superseded it meanwhile — otherwise a round
	// re-announced while the old instance's job is still in the compute
	// queue (master failover re-running the interrupted round, or a quorum
	// retry) would make this worker submit twice into the new aggregation
	// instance. Training is deterministic per (seed, round, client), so
	// dropping the superseded job loses nothing.
	gen int
}

// Engine is one edge node's full Totoro stack: overlay node, forest node,
// and the FL driver. Any engine can simultaneously be master for some
// applications, aggregator/forwarder for others, and worker for yet
// others — that symmetry is the core of the design.
type Engine struct {
	env  transport.Env
	opts Options
	// self is this node's overlay identity: the contact NewEngine was given,
	// or the one its journal recorded (replay overwrites it before the ring
	// node is built).
	self ring.Contact
	ring *ring.Node
	ps   *pubsub.Node

	queue *workload.ComputeQueue
	// The role maps are created by their first entry, see put: most nodes
	// of a fleet hold no role in most applications. roles holds every app
	// this node masters or holds a replica of.
	roles   map[AppID]*role
	workers map[AppID]*workerState
	cb      Callbacks
	// acts is the rules' action buffer: a step appends past the actions of
	// the steps it runs inside and truncates back when it is done.
	acts      []mastership.Action
	replaying bool // folding the journal: no action but Store runs

	// Cached handles into env.Metrics(): engine.promotions counts
	// replica→master failover promotions, engine.rounds counts completed
	// master rounds.
	ctrPromotions *obs.Counter
	ctrRounds     *obs.Counter

	// Durable state (durable.go). store journals engine mutations;
	// recovered/resumed track the boot-from-journal lifecycle.
	store             store.Store
	recovered         bool
	resumed           bool
	degraded          bool
	ctrStoreAppends   *obs.Counter
	ctrStoreSnapshots *obs.Counter
	ctrStoreErrors    *obs.Counter
	ctrRecoveries     *obs.Counter
	gaugeDegraded     *obs.Gauge

	// AckHook, when set, observes every master-state acknowledgement:
	// commit=true fires synchronously at each committed round (with the
	// merged participant count), commit=false at every replication of a
	// mastership image (claim, promotion, restart re-claim, post-commit).
	// The chaos harness's invariant checker hangs off it (chaos.go).
	AckHook func(app AppID, epoch, round, participants int, commit bool)
}

// NewEngine builds an engine for the given environment and identity.
// The returned engine is the node's transport.Handler.
func NewEngine(env transport.Env, self ring.Contact, opts Options) *Engine {
	if opts.Speed == 0 {
		opts.Speed = 1
	}
	if opts.ReplicaCheckInterval <= 0 {
		opts.ReplicaCheckInterval = 500 * time.Millisecond
	}
	if opts.FailoverGrace <= 0 {
		opts.FailoverGrace = time.Second
	}
	queue := opts.Queue
	if queue == nil {
		queue = &workload.ComputeQueue{}
	}
	e := &Engine{env: env, opts: opts, queue: queue, self: self}
	e.ctrPromotions = env.Metrics().Counter("engine.promotions")
	e.ctrRounds = env.Metrics().Counter("engine.rounds")
	if opts.Store != nil {
		e.store = opts.Store
		e.ctrStoreAppends = env.Metrics().Counter("store.appends")
		e.ctrStoreSnapshots = env.Metrics().Counter("store.snapshots")
		e.ctrStoreErrors = env.Metrics().Counter("store.errors")
		e.ctrRecoveries = env.Metrics().Counter("engine.recoveries")
		e.gaugeDegraded = env.Metrics().Gauge("store.degraded")
		RegisterWire() // journals decode through the same codec registry
		loaded, err := e.replay(e.store)
		if err != nil {
			e.ctrStoreErrors.Inc()
		}
		if loaded {
			// Rejoin under the identity the journal recorded — peers, trees,
			// and replicated state all key on it — at the address this
			// process listens on now.
			e.self.Addr = self.Addr
			e.recovered = true
			e.ctrRecoveries.Inc()
		} else {
			e.journal(walIdentity{Self: self})
		}
	}
	e.ring = ring.New(env, e.self, opts.Ring)
	e.ps = pubsub.New(env, e.ring, opts.PubSub)
	// The engine interposes on the ring's upcalls to catch its own control
	// messages, delegating everything else to the pub/sub layer.
	e.ring.SetApp(e)
	e.ps.SetHandlers(pubsub.Handlers{
		OnDeliver:   e.onDeliver,
		Combine:     e.combine,
		OnAggregate: e.onAggregate,
	})
	return e
}

// Self returns this node's overlay contact.
func (e *Engine) Self() ring.Contact { return e.self }

// Ring exposes the overlay node (diagnostics and experiments).
func (e *Engine) Ring() *ring.Node { return e.ring }

// PubSub exposes the forest node (diagnostics and experiments).
func (e *Engine) PubSub() *pubsub.Node { return e.ps }

// Metrics returns this node's telemetry registry: every layer of the
// stack (ring, pubsub, fl driver, transport) emits into it.
func (e *Engine) Metrics() *obs.Registry { return e.env.Metrics() }

// SetCallbacks installs the custom-application upcalls.
func (e *Engine) SetCallbacks(cb Callbacks) { e.cb = cb }

// Receive implements transport.Handler, dispatching overlay and forest
// messages to their layers.
func (e *Engine) Receive(from transport.Addr, msg any) {
	if rep, ok := msg.(replicaMsg); ok {
		e.handleReplica(rep)
		return
	}
	if p, ok := msg.(masterPing); ok {
		if r := e.roles[p.App]; r != nil {
			e.step(p.App, r, event{Kind: mastership.Ping, From: ring.Contact{Addr: p.From}})
		}
		return
	}
	if _, ok := msg.(ring.Message); ok {
		e.ring.Receive(from, msg)
		return
	}
	e.ps.Receive(from, msg)
}

// --- Table 2 API ---

// Rejoin enters an existing overlay through any member node (the paper's
// Join), checks every 50 ms on the engine's own timer whether the ring
// reports the join complete, and then calls ResumeAfterRestart, which only
// an engine recovered from its store acts on. The timer dies with the
// process that armed it, so an engine that crashes again before it resumed
// never resumes that incarnation; the next one rejoins anew.
func (e *Engine) Rejoin(bootstrap transport.Addr) {
	e.ring.Join(bootstrap)
	var poll func()
	poll = func() {
		if !e.ring.Joined() {
			e.env.After(50*time.Millisecond, poll)
			return
		}
		e.ResumeAfterRestart()
	}
	e.env.After(50*time.Millisecond, poll)
}

// CreateTree creates the application's dataflow tree: the spec is routed
// to the rendezvous node (numerically closest to the AppID), which becomes
// the application's master.
func (e *Engine) CreateTree(spec AppSpec) {
	if spec.ID.IsZero() {
		panic("totoro: CreateTree needs a non-zero AppID")
	}
	e.ring.Route(spec.ID, announceMsg{Spec: spec})
}

// Subscribe joins this node to an application's tree as a worker holding
// the given local shard. restricted enforces the zone boundary for
// zone-restricted applications.
func (e *Engine) Subscribe(app AppID, shard *ml.Dataset, restricted bool) error {
	if restricted && e.opts.ZoneBits > 0 {
		if app.ZonePrefix(e.opts.ZoneBits) != e.Self().ID.ZonePrefix(e.opts.ZoneBits) {
			return fmt.Errorf("totoro: node %s (zone %d) refused zone-restricted app in zone %d",
				e.Self().Addr, e.Self().ID.ZonePrefix(e.opts.ZoneBits), app.ZonePrefix(e.opts.ZoneBits))
		}
	}
	put(&e.workers, app, &workerState{shard: shard, restricted: restricted})
	e.journal(walSub{App: app, Restricted: restricted})
	e.ps.Subscribe(app)
	return nil
}

// SubscribeTopic joins a tree without a data shard (custom pub/sub use).
func (e *Engine) SubscribeTopic(app AppID) { e.ps.Subscribe(app) }

// Unsubscribe leaves an application.
//
//lint:ignore unused Subscribe's inverse: the journal's walUnsub record and pubsub's tree leave exist for it
func (e *Engine) Unsubscribe(app AppID) {
	delete(e.workers, app)
	e.journal(walUnsub{App: app})
	e.ps.Unsubscribe(app)
}

// StartTraining tells the application's master to begin rounds.
func (e *Engine) StartTraining(app AppID) { e.ring.Route(app, startMsg{App: app}) }

// Broadcast disseminates an object from the master down the tree
// (Table 2 Broadcast). Called anywhere, it first routes to the root.
func (e *Engine) Broadcast(app AppID, obj any) { e.ps.Publish(app, obj) }

// Aggregate contributes an object to an aggregation round (Table 2
// Aggregate); interior nodes fold contributions with the owner's
// aggregation function on the way to the root.
func (e *Engine) Aggregate(app AppID, round int, obj any) { e.ps.SubmitUpdate(app, round, obj) }

// OnTimer invokes fn with progress information every interval until the
// app finishes or cancel is called (Table 2 onTimer).
func (e *Engine) OnTimer(app AppID, interval time.Duration, fn func(TimerInfo)) (cancel func()) {
	return transport.Every(e.env, interval, func() bool {
		info := TimerInfo{App: app, Now: e.env.Now()}
		if m := e.master(app); m != nil {
			info.Round = m.Round
			info.Done = m.Done
			if n := len(m.Points); n > 0 {
				info.Accuracy = m.Points[n-1].Accuracy
			}
		}
		fn(info)
		return !info.Done
	})
}

// IsMaster reports whether this node is the application's master.
func (e *Engine) IsMaster(app AppID) bool {
	return e.master(app) != nil
}

// master is this node's mastership of app, or nil.
func (e *Engine) master(app AppID) *replicaMsg {
	if r := e.roles[app]; r != nil {
		return r.Master
	}
	return nil
}

// Progress returns the master-side training trajectory for an app, built
// afresh from the mastership's image on each call; its Points alias the
// master's own.
func (e *Engine) Progress(app AppID) (*workload.Progress, bool) {
	m := e.master(app)
	if m == nil {
		return nil, false
	}
	return &workload.Progress{App: m.Spec.Name, Points: m.Points, Done: m.DoneAt, Reached: m.Reached}, true
}

// GlobalParams returns a copy of the master's current global parameters.
func (e *Engine) GlobalParams(app AppID) ([]float64, bool) {
	m := e.master(app)
	if m == nil {
		return nil, false
	}
	return append([]float64(nil), m.Global...), true
}

// --- ring.App interposition ---

// Deliver handles control messages addressed to this node as rendezvous,
// delegating pub/sub payloads onward.
func (e *Engine) Deliver(d ring.Delivery) {
	switch p := d.Payload.(type) {
	case announceMsg:
		// Early subscribers splice below the claimed root.
		fresh := &replicaMsg{Spec: p.Spec, Global: append([]float64(nil), p.Spec.InitParams...)}
		e.step(p.Spec.ID, e.roleOf(p.Spec.ID), event{Kind: mastership.Announce, Image: fresh})
	case startMsg:
		e.probe(p.App, mastership.Start)
	default:
		// Tree traffic arriving at the rendezvous node: if the previous
		// master died and we hold its replica, this is the moment the ring
		// has rerouted the app key to us — promote before the pub/sub layer
		// claims the root, so the tree and the FL master move together.
		switch q := d.Payload.(type) {
		case pubsub.JoinMsg:
			e.probe(q.Topic, mastership.Probe)
		case pubsub.PublishMsg:
			e.probe(q.Topic, mastership.Probe)
		}
		e.ps.Deliver(d)
	}
}

// Forward delegates to the pub/sub layer (JOIN interception).
func (e *Engine) Forward(d *ring.Delivery, next ring.Contact) bool {
	return e.ps.Forward(d, next)
}

// --- pub/sub upcalls ---

func (e *Engine) onDeliver(app ids.ID, obj any, depth int, subscriber bool) {
	if rs, ok := obj.(roundStart); ok {
		e.handleRoundStart(app, rs, subscriber)
		return
	}
	if e.cb.OnBroadcast != nil {
		e.cb.OnBroadcast(app, obj, depth, subscriber)
	}
}

func (e *Engine) combine(app ids.ID, a, b any) any {
	ua, okA := a.(updateAgg)
	ub, okB := b.(updateAgg)
	if okA && okB {
		// A partial that decodes but cannot merge is dropped where it
		// enters, and the other side goes on: one without an aggregate, or
		// one whose model size differs from the aggregate it meets.
		switch {
		case ua.Acc == nil && ub.Acc == nil:
			e.reject(2)
			return nil
		case ua.Acc == nil:
			e.reject(1)
			return b
		case ub.Acc == nil || len(ub.Acc.WeightedSum) != len(ua.Acc.WeightedSum):
			e.reject(1)
			return a
		}
	}
	if okA || okB {
		return mergeUpdates(a, b)
	}
	if e.cb.Combine != nil {
		return e.cb.Combine(app, a, b)
	}
	return b
}

func (e *Engine) onAggregate(app ids.ID, round int, obj any, count int) {
	r := e.roles[app]
	u, isUpdate := obj.(updateAgg)
	if r != nil && r.Master != nil && (isUpdate || obj == nil) {
		if u.Acc != nil && len(u.Acc.WeightedSum) != len(r.Master.Global) {
			e.reject(1)
			u = updateAgg{}
		}
		n := 0
		if u.Acc != nil {
			n = u.Acc.Count
		}
		r.flush = u
		e.step(app, r, event{Kind: mastership.Flush, Round: round, Count: n})
		r.flush = updateAgg{}
		return
	}
	if e.cb.OnAggregate != nil {
		e.cb.OnAggregate(app, round, obj, count)
	}
}

// reject counts partials dropped for their shape. The counter is
// registered by the first drop, so a run that drops none does not list it.
func (e *Engine) reject(n int64) { e.env.Metrics().Counter("fl.rejected_partials").Add(n) }

// handleRoundStart is every tree member's reaction to a round broadcast:
// train and contribute if selected, otherwise report an empty
// contribution so in-network aggregation can complete.
func (e *Engine) handleRoundStart(app ids.ID, rs roundStart, subscriber bool) {
	w := e.workers[app]
	selected := subscriber && w != nil && w.shard != nil && w.shard.Len() > 0 &&
		participates(app, e.Self().Addr, rs.Round, rs.Participation)
	if w != nil {
		w.gen++
	}
	if !selected {
		e.ps.SubmitUpdate(app, rs.Round, nil)
		return
	}
	e.trainRound(app, rs, w)
}

// trainRound runs a selected worker's local training for one round and
// submits the update when the simulated compute time has elapsed. It is its
// own function so that rs — which the closures below capture, forcing it
// to the heap on entry — is copied there only for workers that train, not
// for every tree member a round broadcast passes through.
func (e *Engine) trainRound(app ids.ID, rs roundStart, w *workerState) {
	gen := w.gen
	if w.proto == nil || !slices.Equal(w.proto.Sizes, rs.Sizes) {
		w.proto = &ml.MLP{Sizes: append([]int(nil), rs.Sizes...)}
	}
	dur := workload.DefaultCostModel().Time(rs.Cfg.LocalEpochs, w.shard.Len(), len(rs.Params), e.opts.Speed)
	now := e.env.Now()
	finish := e.queue.Start(now, dur)
	// Training inputs are fully determined here, so hand the pure job to
	// the real worker pool now and collect the result when the simulated
	// compute time elapses: clients across the ring train concurrently on
	// real CPUs while virtual time is unaffected. All randomness comes from
	// an rng derived from (app seed, round, node address), never from the
	// shared simulator stream, so the outcome is independent of pool
	// scheduling.
	proto, shard, params := w.proto, w.shard, rs.Params
	tag := fl.ClientTag(string(e.Self().Addr))
	var agg updateAgg
	fut := fl.Go(func(ws *ml.Workspace) {
		crng := fl.ClientRNG(ws, rs.Seed, rs.Round, tag)
		u := fl.LocalTrainWS(proto, params, shard, rs.Cfg, crng, ws)
		if u.Samples == 0 {
			return
		}
		if rs.NoiseSigma > 0 {
			addGaussianNoise(u.Delta, rs.NoiseSigma, crng)
		}
		spec := AppSpec{Compressor: rs.Compressor, TopK: rs.TopK}
		recon, bytes := fl.ApplyOwned(spec.compressor(), u.Delta)
		u.Delta = recon
		agg = updateAgg{Acc: fl.NewAccumOwning(u), Bytes: bytes}
	})
	e.env.After(finish-now, func() {
		fut.Wait()
		if w.gen != gen {
			return // a newer announcement superseded this job; see workerState.gen
		}
		if agg.Acc == nil {
			e.ps.SubmitUpdate(app, rs.Round, nil)
			return
		}
		e.ps.SubmitUpdate(app, rs.Round, agg)
	})
}

// put stores m[k] = v, creating the map for its first entry.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}
