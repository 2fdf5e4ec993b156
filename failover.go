package totoro

import (
	"time"

	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// replicaMsg is the master's replicated round state: everything a leaf-set
// successor needs to take over an application if the master dies. It is
// sent directly (not routed) to the k leaf-set contacts closest to the app
// key — exactly the nodes the ring would promote to owner of the key after
// the master's failure, so whoever inherits the key also holds the state.
//
// Epoch orders successive masterships: each promotion increments it, so a
// revived old master can tell that it was superseded (a replica with a
// higher epoch than its own demotes it back to replica holder).
type replicaMsg struct {
	Spec   AppSpec
	Master ring.Contact // sender, for same-epoch tie-breaks
	Epoch  int
	Round  int // last completed round
	Global []float64
	Points []workload.AccuracyPoint

	Started bool
	Done    bool
	Reached bool
	DoneAt  time.Duration
}

func (r replicaMsg) WireSize() int {
	return 64 + r.Spec.WireSize() + 8*len(r.Global) + 32*len(r.Points)
}

// newerReplica reports whether a supersedes b.
func newerReplica(a, b replicaMsg) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	if a.Round != b.Round {
		return a.Round > b.Round
	}
	if a.Done != b.Done {
		return a.Done
	}
	if a.Started != b.Started {
		return a.Started
	}
	return true // same version: accept the fresher copy
}

// masterImage captures a mastership as a replicaMsg: the unit of both
// network replication (replicateRound) and durable journaling
// (walMaster/walSnapshot in durable.go).
func (e *Engine) masterImage(m *masterState) replicaMsg {
	return replicaMsg{
		Spec:    m.spec,
		Master:  e.Self(),
		Epoch:   m.epoch,
		Round:   m.round,
		Global:  append([]float64(nil), m.global...),
		Points:  append([]workload.AccuracyPoint(nil), m.progress.Points...),
		Started: m.started,
		Done:    m.done,
		Reached: m.progress.Reached,
		DoneAt:  m.progress.Done,
	}
}

// replicateRound ships the master's current round state to its leaf-set
// successors. Called after becoming master, on training start, and after
// every completed round — so a replica is never more than one round stale.
func (e *Engine) replicateRound(m *masterState) {
	if e.AckHook != nil {
		e.AckHook(m.spec.ID, m.epoch, m.round, 0, false)
	}
	k := e.opts.Replicas
	if k <= 0 {
		return // replication disabled (the default)
	}
	rep := e.masterImage(m)
	for _, c := range e.ring.ClosestLeaves(m.spec.ID, k) {
		e.env.Send(c.Addr, rep)
	}
}

// handleReplica stores (or refreshes) a replica, demoting this node first
// if the replica proves a higher-epoch master exists elsewhere.
func (e *Engine) handleReplica(rep replicaMsg) {
	app := rep.Spec.ID
	// Journal before applying: replay folds the record through the same
	// guards below (durableState.apply), reaching the same masters/replicas
	// split a live engine holds.
	e.journal(walReplica{Rep: rep})
	if m, ok := e.masters[app]; ok {
		switch {
		case rep.Epoch < m.epoch:
			// A stale master is still replicating: a partition healed and the
			// loser of an epoch race doesn't know it lost. Beat it back with
			// our newer image — handleReplica on its side demotes it, which
			// discards (not merges) its divergent in-flight round. Without
			// this reply the loser only reconciles if it happens to sit in
			// our leaf set; with it, heal resolves within one of the loser's
			// replication attempts.
			e.nackStaleMaster(m, rep)
			return
		case rep.Epoch == m.epoch:
			if rep.Master.Addr == e.Self().Addr {
				return // echo of our own replication
			}
			// Two masters promoted from the same replica (inconsistent ring
			// views). Deterministic tie-break: the one closer to the app key
			// is the rightful rendezvous node; the other steps down.
			if ids.Closer(app, e.Self().ID, rep.Master.ID) {
				e.nackStaleMaster(m, rep) // same-epoch tie-break: tell the loser
				return
			}
			delete(e.masters, app)
			e.ps.Disown(app)
		default:
			// A higher-epoch master exists (we are a revived old master or
			// lost an epoch race): step down, keep the state as a replica.
			delete(e.masters, app)
			e.ps.Disown(app)
		}
	}
	if cur, ok := e.replicas[app]; ok && !newerReplica(rep, *cur) {
		return
	}
	delete(e.suspect, app) // a fresh image is proof of a live master
	put(&e.replicas, app, &rep)
	if rep.Started && !rep.Done {
		e.ensureReplicaCheck(app)
	}
}

// masterPing asks an application's last-known master to prove it is still
// alive and in charge. A replica holder sends it before promoting itself:
// overlay routing state can scrub a live master on a single dropped
// hop-ack, and promoting on ring evidence alone forks the app into a
// spurious higher-epoch lineage that — by the epoch rule — later *wins*
// reconciliation with nearly untrained state. The master answers with its
// current image (a replicaMsg), which both refreshes the replica and
// resets the holder's suspicion; silence across masterProbeTries
// consecutive checks clears the node to promote.
type masterPing struct {
	App  AppID
	From transport.Addr
}

func (masterPing) WireSize() int { return 24 }

// masterProbeTries is how many consecutive unanswered masterPings a
// replica holder needs before concluding the master is gone. Two checks
// tolerate one dropped ping or reply without delaying real failover by
// more than one ReplicaCheckInterval.
const masterProbeTries = 2

// handleMasterPing answers a replica holder's liveness probe: if this node
// masters the app, reply with the current image (proof plus refresh).
// Anything else stays silent — the prober's timeout is the signal.
func (e *Engine) handleMasterPing(p masterPing) {
	m, ok := e.masters[p.App]
	if !ok || p.From == e.Self().Addr || p.From == "" {
		return
	}
	img := e.masterImage(m)
	if m.inFlight {
		// Unlike replicateRound (which only runs right after a commit),
		// a ping can catch the master mid-round. Report the last
		// *committed* round: an image claiming an unacked round would put
		// the replica ahead of the master's acks.
		img.Round = m.round - 1
	}
	e.env.Send(p.From, img)
}

// nackStaleMaster answers a losing master's replication with this
// master's own winning image, sent straight back to the sender. The
// loser's handleReplica demotes it by the normal epoch/tie-break rules;
// its in-flight round dies with the demotion (the replica it keeps is
// OUR image, so nothing of its divergent state merges into the app).
func (e *Engine) nackStaleMaster(m *masterState, stale replicaMsg) {
	if stale.Master.Addr == e.Self().Addr || stale.Master.Addr == "" {
		return
	}
	e.env.Send(stale.Master.Addr, e.masterImage(m))
}

// ensureReplicaCheck runs a periodic ownership probe while this node holds
// a replica of a live (started, unfinished) application: if the ring now
// routes the app key to us — the master died and was scrubbed from our
// routing state — we promote. The loop stops as soon as the replica is
// gone, finished, or we became master, so it never keeps the event queue
// busy after training ends (replicas of finished apps carry Done).
func (e *Engine) ensureReplicaCheck(app AppID) {
	if e.checking[app] {
		return
	}
	interval := e.opts.ReplicaCheckInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	put(&e.checking, app, true)
	var tick func()
	tick = func() {
		rep, ok := e.replicas[app]
		if !ok || rep.Done || e.IsMaster(app) {
			delete(e.checking, app)
			return
		}
		if e.maybePromote(app) {
			delete(e.checking, app)
			return
		}
		e.env.After(interval, tick)
	}
	e.env.After(interval, tick)
}

// maybePromote makes this node the application's master from its stored
// replica — but only if the ring says this node now owns the app key
// (NextHop returns no hop). It reclaims the tree root, resets any stale
// aggregation state left from this node's life as an interior aggregator,
// re-replicates at a higher epoch (demoting a revived predecessor), and
// resumes rounds after a grace period that lets orphaned workers re-attach.
func (e *Engine) maybePromote(app AppID) bool {
	rep, ok := e.replicas[app]
	if !ok {
		return false
	}
	if _, already := e.masters[app]; already {
		return false
	}
	if !e.ring.NextHop(app).IsZero() {
		delete(e.suspect, app) // the key routes elsewhere: not our call
		return false
	}
	// The ring routes the key to us — but that alone is weak evidence of
	// the master's death (see masterPing). Probe it directly and only
	// promote after masterProbeTries consecutive silent checks; any image
	// it sends back lands in handleReplica, which clears the suspicion.
	if rep.Master.Addr != "" && rep.Master.Addr != e.Self().Addr {
		if tries := e.suspect[app]; tries < masterProbeTries {
			put(&e.suspect, app, tries+1)
			e.env.Send(rep.Master.Addr, masterPing{App: app, From: e.Self().Addr})
			return false
		}
	}
	delete(e.suspect, app)
	delete(e.replicas, app)
	m := &masterState{
		spec:    rep.Spec,
		global:  append([]float64(nil), rep.Global...),
		round:   rep.Round,
		epoch:   rep.Epoch + 1,
		started: rep.Started,
		done:    rep.Done,
		progress: &workload.Progress{
			App:     rep.Spec.Name,
			Points:  append([]workload.AccuracyPoint(nil), rep.Points...),
			Done:    rep.DoneAt,
			Reached: rep.Reached,
		},
	}
	put(&e.masters, app, m)
	e.ctrPromotions.Inc()
	// Journal the promotion before any network action: a crash mid-takeover
	// recovers as the (bumped-epoch) master and re-runs the takeover.
	e.journal(walMaster{Rep: e.masterImage(m)})
	// The bumped epoch restarts the tree's multicast stream: members reset
	// their dedup state instead of swallowing the new root's sequence
	// numbers (which restart from 1) as replays of the dead master's.
	e.ps.CreateWithConfig(app, pubsub.TreeConfig{
		MaxFanout:  m.spec.TreeFanout,
		AggTimeout: m.spec.RoundDeadline,
		Epoch:      uint64(m.epoch),
	})
	// As an interior node this engine may hold aggRounds already marked
	// flushed; a re-announced round must aggregate fresh.
	e.ps.ResetRounds(app)
	e.replicateRound(m)
	if m.started && !m.done {
		grace := e.opts.FailoverGrace
		if grace <= 0 {
			grace = time.Second
		}
		round := m.round
		e.env.After(grace, func() {
			// Resume only if nothing else moved the app meanwhile (we could
			// have been demoted, or a round could already be in flight).
			if cur, ok := e.masters[app]; ok && cur == m && !m.done && m.round == round {
				e.beginRound(m)
			}
		})
	}
	return true
}
