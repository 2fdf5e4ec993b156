package totoro

import (
	"slices"

	"totoro/internal/ml"
	"totoro/internal/ring"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
)

// Durable engine state: the WAL record types journaled through
// Options.Store and the boot-time replay that folds them back into a
// live engine. The granularity is the engine's own mutation points —
// identity claimed, worker subscribed, mastership assumed (announce,
// promotion, or restart re-claim), round begun, round committed, replica
// accepted — journaled *before* the corresponding network action, so a
// node never acknowledges state it could forget.
//
// Master images reuse replicaMsg wholesale: the failover layer already
// defines "everything needed to reconstruct a mastership" (spec, model,
// progress, epoch), and durability is failover against one's own death.
// An image's Round is always the last *completed* round — an in-flight
// round dies with the process and is simply re-run after recovery, which
// is exactly how failover promotion resumes too.

// walIdentity claims this node's permanent overlay identity; it is the
// first record of every journal, so a restarted node rejoins the ring
// under the ID its peers and trees already know.
type walIdentity struct {
	Self ring.Contact
}

// walSub records a worker subscription (the shard itself lives with the
// driver that owns the data and is re-attached after recovery).
type walSub struct {
	App        AppID
	Restricted bool
}

// walUnsub records leaving an application.
type walUnsub struct {
	App AppID
}

// walRound marks a round begun (the paper's round start): informational
// on replay — the in-flight round is re-run from the last committed
// image — but it makes the journal a complete round-event history.
type walRound struct {
	App   AppID
	Round int
}

// walMaster is a full mastership image: journaled when a mastership is
// assumed and at every round commit (the model update is the commit).
type walMaster struct {
	Rep replicaMsg
}

// walReplica records a remote master's round state accepted by this node
// as a leaf-set replica holder — after a restart the node resumes its
// ownership probes and can still promote.
type walReplica struct {
	Rep replicaMsg
}

// walSnapshot is the full-state image that lets the WAL be
// truncated: everything the records since boot fold to, in sorted order
// so identical states serialize to identical bytes.
type walSnapshot struct {
	Self     ring.Contact
	Masters  []replicaMsg
	Replicas []replicaMsg
	Subs     []walSub
}

// Codec tags for the durable records, continuing the engine's block in
// the application range. Tags are storage contract: never reuse or
// renumber — journals on disk outlive binaries.
const (
	tagWalIdentity = tagReplica + 1 + iota
	tagWalSub
	tagWalUnsub
	tagWalRound
	tagWalMaster
	tagWalSnapshot
	tagWalReplica
)

func registerWalCodecs() {
	codec.Register(tagWalIdentity, walIdentity{})
	codec.Register(tagWalSub, walSub{})
	codec.Register(tagWalUnsub, walUnsub{})
	codec.Register(tagWalRound, walRound{})
	codec.Register(tagWalMaster, walMaster{})
	codec.Register(tagWalSnapshot, walSnapshot{})
	codec.Register(tagWalReplica, walReplica{})
	store.RegisterRecords(
		walIdentity{}, walSub{}, walUnsub{}, walRound{},
		walMaster{}, walReplica{}, walSnapshot{},
	)
}

// replay folds a store into this engine — the latest snapshot, then every
// record journaled after it — and reports whether the store held anything.
// Store-level errors (corrupt snapshot, unreadable journal) degrade to
// whatever replayed cleanly: a partially recovered node re-earns the rest
// through the normal protocols, which beats refusing to boot. NewEngine
// calls it before the overlay node exists; it touches no network.
func (e *Engine) replay(st store.Store) (loaded bool, err error) {
	state, recs, err := st.Load()
	e.apply(state) // nil when there is no snapshot yet
	for _, rec := range recs {
		e.apply(rec)
	}
	return state != nil || len(recs) > 0, err
}

// apply folds one journaled record into the role maps. It is the mutation
// itself, not a mirror of it: Subscribe and Unsubscribe call it live, and
// walReplica goes through the yieldTo and keepReplica that handleReplica
// runs, so a replayed journal reaches the masters/replicas split the live
// engine held (TestReplayReachesLiveRoles).
func (e *Engine) apply(rec any) {
	switch r := rec.(type) {
	case walIdentity:
		e.self = r.Self
	case walSub:
		put(&e.workers, r.App, &workerState{restricted: r.Restricted})
	case walUnsub:
		delete(e.workers, r.App)
	case walRound:
		// The begun round is in flight; recovery re-runs it from the last
		// committed image, so only the started flag matters here.
		if m, ok := e.masters[r.App]; ok {
			m.Started = true
		}
	case walMaster:
		put(&e.masters, r.Rep.Spec.ID, masterFromImage(r.Rep))
		delete(e.replicas, r.Rep.Spec.ID)
	case walReplica:
		if beat, _ := e.yieldTo(r.Rep); beat == nil {
			e.keepReplica(r.Rep)
		}
	case walSnapshot:
		e.self = r.Self
		for _, rep := range r.Masters {
			put(&e.masters, rep.Spec.ID, masterFromImage(rep))
		}
		for i := range r.Replicas {
			put(&e.replicas, r.Replicas[i].Spec.ID, &r.Replicas[i])
		}
		for _, w := range r.Subs {
			e.apply(w)
		}
	}
}

// journal appends one record to the durable store, first folding the
// journal into a snapshot if it has outgrown the last one. The snapshot
// goes before the append, not after it: by now every record journaled so
// far has been applied, while the one being appended may not be yet
// (handleReplica journals before it acts), and a snapshot taken after
// the append would truncate that record away unapplied.
//
// The first append failure permanently degrades the engine to
// non-durable: it keeps serving from memory (availability over
// durability) but never journals again, raising the store.degraded
// gauge. Degrading — rather than retrying once the disk looks healthy
// again — is a safety rule: records lost inside a fault window would
// leave a gap, and a journal that resumes past a gap replays as a clean
// prefix after the next crash, silently dropping everything after the
// gap. That is ack-then-lose, the one failure mode the journal-before-ack
// contract exists to prevent.
func (e *Engine) journal(rec any) {
	if e.store == nil || e.degraded {
		return
	}
	if e.store.Outgrown() {
		e.snapshotDurable()
	}
	if err := e.store.Append(rec); err != nil {
		e.ctrStoreErrors.Inc()
		e.degraded = true
		e.gaugeDegraded.Set(1)
		return
	}
	e.ctrStoreAppends.Inc()
}

func (e *Engine) snapshotDurable() {
	if err := e.store.Snapshot(e.buildSnapshot()); err != nil {
		// A failed snapshot is tolerable without degrading: the WAL is only
		// truncated after a snapshot lands, so the journal stays a clean
		// prefix and the next journal call retries.
		e.ctrStoreErrors.Inc()
		return
	}
	e.ctrStoreSnapshots.Inc()
}

// buildSnapshot captures the engine's durable state, sorted so the same
// state always serializes to the same bytes. A master's in-flight round
// is recorded as not yet begun (committedImage) — the same contract a
// crash between rounds has. Its master images alias the live models, as
// every journaled image does (masterImage).
func (e *Engine) buildSnapshot() walSnapshot {
	snap := walSnapshot{Self: e.self}
	var keys [8]AppID // sort scratch: on the stack for up to eight apps a map
	for _, app := range appendSortedApps(keys[:0], e.masters) {
		snap.Masters = append(snap.Masters, e.committedImage(e.masters[app]))
	}
	for _, app := range appendSortedApps(keys[:0], e.replicas) {
		snap.Replicas = append(snap.Replicas, *e.replicas[app])
	}
	for _, app := range appendSortedApps(keys[:0], e.workers) {
		snap.Subs = append(snap.Subs, walSub{App: app, Restricted: e.workers[app].restricted})
	}
	return snap
}

// sortedApps returns m's keys in ID order (nil for an empty map).
func sortedApps[T any](m map[AppID]T) []AppID {
	if len(m) == 0 {
		return nil
	}
	return appendSortedApps(make([]AppID, 0, len(m)), m)
}

// appendSortedApps appends m's keys to dst, which must be empty, in ID
// order; callers on a hot path pass a recycled dst[:0].
//
//vet:noalloc
func appendSortedApps[T any](dst []AppID, m map[AppID]T) []AppID {
	for id := range m {
		dst = append(dst, id)
	}
	if len(dst) > 1 {
		slices.SortFunc(dst, AppID.Cmp)
	}
	return dst
}

// masterFromImage is the one image→state conversion: journal replay,
// failover promotion and restart all build their masterState here. The
// copy matters — a master updates its model in place, and an image may be
// shared with the journal, the network and other replica holders.
func masterFromImage(rep replicaMsg) *masterState { return &masterState{replicaMsg: rep.own()} }

// Recovered reports whether this engine booted from a non-empty durable
// store.
func (e *Engine) Recovered() bool { return e.recovered }

// AttachShard re-attaches a local data shard to a recovered worker
// subscription. Shards are the driver's data, not the engine's: the
// store journals *that* this node works for an app, and whoever owns the
// data re-supplies it after a restart.
func (e *Engine) AttachShard(app AppID, shard *ml.Dataset) {
	if w, ok := e.workers[app]; ok {
		w.shard = shard
	}
}

// ResumeAfterRestart re-establishes this node's live roles from its
// recovered state. Call it once the node has rejoined the overlay (the
// ring must know the node's neighbors before trees can be reclaimed):
//
//   - recovered worker subscriptions re-join their trees;
//   - recovered masterships are re-claimed at a bumped epoch — demoting
//     any successor that promoted itself during the outage — and
//     unfinished training resumes after the failover grace period, from
//     the last committed round;
//   - recovered replicas restart their ownership probes.
func (e *Engine) ResumeAfterRestart() {
	if !e.recovered || e.resumed {
		return
	}
	e.resumed = true
	for _, app := range sortedApps(e.workers) {
		e.ps.Subscribe(app)
	}
	for _, app := range sortedApps(e.masters) {
		m := e.masters[app]
		m.Epoch++ // demotes whoever promoted itself during the outage
		e.claim(m)
		if m.Started && !m.Done {
			round := m.Round
			transport.Every(e.env, e.opts.FailoverGrace, func() bool {
				if !e.still(m, round) {
					return false
				}
				// Don't begin a round into an empty tree: right after a
				// restart the workers are still parked under the interim
				// root (or mid-rejoin), and a childless root would complete
				// every remaining round instantly with zero participants.
				// Wait another grace period for the tree to hand back.
				if info, treeOK := e.ps.TreeInfo(app); treeOK && len(info.Children) == 0 {
					return true
				}
				e.beginRound(m)
				return false
			})
		}
	}
	for _, app := range sortedApps(e.replicas) {
		rep := e.replicas[app]
		if rep.Started && !rep.Done {
			e.ensureReplicaCheck(app)
		}
	}
}
