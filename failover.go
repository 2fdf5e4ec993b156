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

// masterImage is a mastership's image stamped with this node as its
// master: the unit of both network replication (replicate) and durable
// journaling (walMaster/walSnapshot in durable.go). The stamp matters — a
// promoted or replayed mastership still carries whoever sent its image.
// The image aliases m's model and trajectory, which the master goes on
// updating in place: stores encode synchronously, and whatever sends an
// image sends an own() copy.
func (e *Engine) masterImage(m *masterState) replicaMsg {
	img := m.replicaMsg
	img.Master = e.self
	return img
}

// own returns r with its own copy of the model and the trajectory.
func (r replicaMsg) own() replicaMsg {
	r.Global = append([]float64(nil), r.Global...)
	r.Points = append([]workload.AccuracyPoint(nil), r.Points...)
	return r
}

// claim is the one way to take a mastership — announce, failover
// promotion, quorum retry, restart re-claim: journal the image, claim the
// tree root under m.Epoch, drop this node's stale rounds, replicate.
func (e *Engine) claim(m *masterState) {
	img := e.masterImage(m)
	// Journal before any network action: a crash from here on recovers as
	// master at this epoch and re-runs the takeover — never as a node that
	// half-claimed a root, and never into an epoch it has abandoned.
	e.journal(walMaster{Rep: img})
	// Claiming installs the owner's tree parameters (fanout cap, semi-sync
	// round deadline). A bumped epoch restarts the tree's multicast stream:
	// members reset their dedup and per-round aggregation state instead of
	// swallowing the new root's sequence numbers (which restart from 1) as
	// replays of its predecessor's until they pass the old high-water mark.
	e.ps.CreateWithConfig(m.Spec.ID, pubsub.TreeConfig{
		MaxFanout:  m.Spec.TreeFanout,
		AggTimeout: m.Spec.RoundDeadline,
		Epoch:      uint64(m.Epoch),
	})
	// From its life as an interior node, or from the instance a retry
	// aborts, this node may hold aggRounds already marked flushed; a
	// re-announced round must aggregate fresh. A no-op on a new topic.
	e.ps.ResetRounds(m.Spec.ID)
	e.replicate(img)
}

// ack acknowledges the master's current state — training started, a round
// committed: journal the image, then replicate it.
func (e *Engine) ack(m *masterState) {
	img := e.masterImage(m)
	e.journal(walMaster{Rep: img})
	e.replicate(img)
}

// committedImage is masterImage as of the last committed round. claim and
// ack only run between rounds, but a snapshot or a ping can catch the
// master mid-round, and an image claiming the in-flight round would put a
// replica ahead of the master's acks: the round's aggregate dies with its
// master anyway, and whoever takes over re-runs it.
func (e *Engine) committedImage(m *masterState) replicaMsg {
	img := e.masterImage(m)
	if m.inFlight {
		img.Round--
	}
	return img
}

// replicate ships an acknowledged image to the master's leaf-set
// successors. It follows every claim, the start of training and every
// committed round — so a replica is never more than one round stale. The
// successors share one copy of the image just journaled: replica holders
// never write to an image (promotion copies it).
func (e *Engine) replicate(img replicaMsg) {
	if e.AckHook != nil {
		e.AckHook(img.Spec.ID, img.Epoch, img.Round, 0, false)
	}
	k := e.opts.Replicas
	if k <= 0 {
		return // replication disabled (the default)
	}
	img = img.own()
	for _, c := range e.ring.ClosestLeaves(img.Spec.ID, k) {
		e.env.Send(c.Addr, img)
	}
}

// yieldTo and keepReplica are the one statement of the epoch rules. They
// touch only the role maps: handleReplica runs them on an image from the
// network and acts on the outcome, WAL replay (apply) on a journaled one.
//
// yieldTo is the mastership half: does this node's mastership of the app,
// if it has one, survive the image? beat is the mastership that outranks
// the image (or that the image merely echoes) — the image goes no further;
// demoted reports that the image ended it.
func (e *Engine) yieldTo(rep replicaMsg) (beat *masterState, demoted bool) {
	app := rep.Spec.ID
	m, ok := e.masters[app]
	switch {
	case !ok:
		return nil, false
	case rep.Epoch < m.Epoch:
		return m, false
	case rep.Epoch == m.Epoch:
		if rep.Master.Addr == e.self.Addr {
			return m, false // echo of our own replication
		}
		// Two masters promoted from the same replica (inconsistent ring
		// views). Deterministic tie-break: the one closer to the app key
		// is the rightful rendezvous node; the other steps down.
		if ids.Closer(app, e.self.ID, rep.Master.ID) {
			return m, false
		}
	}
	// A higher-epoch master exists (we are a revived old master or lost an
	// epoch race), or we lost the tie-break: step down. Our in-flight round
	// dies with the demotion — the replica we keep is the winner's image, so
	// nothing of our divergent state merges into the app.
	delete(e.masters, app)
	return nil, true
}

// keepReplica is the replica half: the image is stored unless the one
// already held supersedes it.
func (e *Engine) keepReplica(rep replicaMsg) bool {
	app := rep.Spec.ID
	if cur, ok := e.replicas[app]; ok && !newerReplica(rep, *cur) {
		return false
	}
	delete(e.suspect, app) // a fresh image is proof of a live master
	put(&e.replicas, app, &rep)
	return true
}

// handleReplica stores (or refreshes) a replica, demoting this node first
// if the replica proves a higher-epoch master exists elsewhere.
func (e *Engine) handleReplica(rep replicaMsg) {
	app := rep.Spec.ID
	// Journal first: replay folds the record through the same two rules,
	// reaching the masters/replicas split a live engine holds.
	e.journal(walReplica{Rep: rep})
	beat, demoted := e.yieldTo(rep)
	if beat != nil {
		// A stale master is still replicating: a partition healed and the
		// loser of an epoch race (or of the same-epoch tie-break) doesn't
		// know it lost. Beat it back with our image, straight to the sender
		// — yieldTo on its side demotes it. Without this reply the loser
		// only reconciles if it happens to sit in our leaf set; with it,
		// heal resolves within one of the loser's replication attempts.
		if rep.Master.Addr != e.self.Addr && rep.Master.Addr != "" {
			e.env.Send(rep.Master.Addr, e.masterImage(beat).own())
		}
		return
	}
	if demoted {
		// Before the image is stored: a subscribed root re-joins through
		// the ring, which can route the JOIN straight back to this node,
		// and maybePromote must then find nothing to promote from.
		e.ps.Disown(app)
	}
	if e.keepReplica(rep) && rep.Started && !rep.Done {
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
	if !ok || p.From == e.self.Addr || p.From == "" {
		return
	}
	e.env.Send(p.From, e.committedImage(m).own())
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
	put(&e.checking, app, true)
	transport.Every(e.env, e.opts.ReplicaCheckInterval, func() bool {
		if rep, ok := e.replicas[app]; !ok || rep.Done || e.IsMaster(app) || e.maybePromote(app) {
			delete(e.checking, app)
			return false
		}
		return true
	})
}

// maybePromote makes this node the application's master from its stored
// replica — but only if the ring says this node now owns the app key
// (NextHop returns no hop). It claims the mastership at a higher epoch
// (demoting a revived predecessor) and resumes rounds after a grace period
// that lets orphaned workers re-attach.
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
	if rep.Master.Addr != "" && rep.Master.Addr != e.self.Addr {
		if tries := e.suspect[app]; tries < masterProbeTries {
			put(&e.suspect, app, tries+1)
			e.env.Send(rep.Master.Addr, masterPing{App: app, From: e.self.Addr})
			return false
		}
	}
	delete(e.suspect, app)
	delete(e.replicas, app)
	m := masterFromImage(*rep)
	m.Epoch++ // demotes a revived predecessor
	put(&e.masters, app, m)
	e.ctrPromotions.Inc()
	e.claim(m)
	if m.Started && !m.Done {
		round := m.Round
		e.env.After(e.opts.FailoverGrace, func() {
			// Resume only if nothing else moved the app meanwhile (we could
			// have been demoted, or a round could already be in flight).
			if e.still(m, round) {
				e.beginRound(m)
			}
		})
	}
	return true
}
