package totoro

import (
	"slices"
	"time"

	"totoro/internal/fl"
	"totoro/internal/mastership"
	"totoro/internal/obs"
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

// Stamp, SetStamp, Rules and Own make *replicaMsg a mastership.Image.
func (r *replicaMsg) Stamp() mastership.Stamp {
	return mastership.Stamp{Master: r.Master, Epoch: r.Epoch, Round: r.Round,
		Started: r.Started, Done: r.Done, Reached: r.Reached, DoneAt: r.DoneAt}
}

func (r *replicaMsg) SetStamp(v mastership.Stamp) {
	r.Master, r.Epoch, r.Round = v.Master, v.Epoch, v.Round
	r.Started, r.Done, r.Reached, r.DoneAt = v.Started, v.Done, v.Reached, v.DoneAt
}

func (r *replicaMsg) Rules() mastership.Rules {
	return mastership.Rules{Quorum: r.Spec.MinParticipants, MaxRounds: r.Spec.MaxRounds, Target: r.Spec.TargetAccuracy}
}

// Own copies an image into a mastership (promotion, journal replay): a
// master updates its model in place, and an image may be shared.
func (r *replicaMsg) Own() mastership.Image {
	c := r.own()
	return &c
}

// own returns r with its own copy of the model and the trajectory.
func (r replicaMsg) own() replicaMsg {
	r.Global = append([]float64(nil), r.Global...)
	r.Points = append([]workload.AccuracyPoint(nil), r.Points...)
	return r
}

// image is m's image at stamp v with this node as its master: the unit of
// both network replication and durable journaling. The stamp matters — a
// promoted or replayed mastership still carries whoever sent its image.
// The image aliases m's model and trajectory, which the master goes on
// updating in place: stores encode synchronously, and whatever sends an
// image sends an own() copy.
func (e *Engine) image(m *replicaMsg, v mastership.Stamp) replicaMsg {
	img := *m
	img.SetStamp(v)
	img.Master = e.self
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

// masterPing asks an application's last-known master to prove it is still
// alive and in charge. A replica holder sends it before promoting itself:
// overlay routing state can scrub a live master on a single dropped
// hop-ack, and promoting on ring evidence alone forks the app into a
// spurious higher-epoch lineage that — by the epoch rule — later *wins*
// reconciliation with nearly untrained state. The master answers with its
// current image (a replicaMsg), which both refreshes the replica and
// resets the holder's suspicion; silence across the rules' probeTries
// consecutive checks clears the node to promote.
type masterPing struct {
	App  AppID
	From transport.Addr
}

func (masterPing) WireSize() int { return 24 }

// handleReplica offers a master's image to the epoch rules. It is its own
// function so that only a replica escapes to the heap, not every message.
func (e *Engine) handleReplica(rep replicaMsg) { e.offer(&rep) }

// offer steps an image through the epoch rule. It alone executes Disown,
// whose re-JOIN can route back into Deliver: no step Deliver runs may
// Disown in turn.
func (e *Engine) offer(rep *replicaMsg) {
	app := rep.Spec.ID
	r := e.roleOf(app)
	ev := event{Kind: mastership.Offer, Image: rep}
	base := e.plan(app, r, &ev)
	for i, end := base, len(e.acts); i < end; i++ {
		if a := e.acts[i]; a.Op != mastership.Disown {
			e.do(app, r, ev, a)
		} else if !e.replaying {
			r.pending = updateAgg{}
			e.ps.Disown(app)
		}
	}
	e.acts = e.acts[:base]
}

// roleOf returns app's entry in roles, creating it.
func (e *Engine) roleOf(app AppID) *role {
	i, ok := slices.BinarySearchFunc(e.roles, app, func(x appRole, id AppID) int { return x.app.Cmp(id) })
	if !ok {
		e.roles = slices.Insert(e.roles, i, appRole{app, &role{}})
	}
	return e.roles[i].r
}

// findRole returns app's entry in roles, or nil. A node holds few roles,
// so a scan is all a look-up needs.
func (e *Engine) findRole(app AppID) *role {
	for _, x := range e.roles {
		if x.app == app {
			return x.r
		}
	}
	return nil
}

// probe steps ev's kind for an app this node holds a role in.
func (e *Engine) probe(app AppID, kind mastership.Kind) {
	if r := e.findRole(app); r != nil {
		e.step(app, r, event{Kind: kind})
	}
}

// step runs one event through the mastership rules and executes their
// actions in order.
func (e *Engine) step(app AppID, r *role, ev event) {
	base := e.plan(app, r, &ev)
	for i, end := base, len(e.acts); i < end; i++ {
		e.do(app, r, ev, e.acts[i])
	}
	e.acts = e.acts[:base]
}

// plan runs the rules on ev, appending their actions to e.acts past those
// of the steps it runs inside, and returns where its own start. The rules
// learn whether the ring routes the app here only when they could promote.
func (e *Engine) plan(app AppID, r *role, ev *event) int {
	ev.Self, ev.App = e.self, app
	if r.Role() == mastership.Holder && e.ring != nil {
		ev.Owns = e.ring.NextHop(app).IsZero()
	}
	base := len(e.acts)
	e.acts = mastership.Step(&r.State, *ev, e.acts)
	return base
}

// do executes one action of the rules. While the journal is replayed only
// the state counts: the journal holds the records being folded and the
// network is not up, so Store, an Offer's second half, is all that runs.
// Timers capture the mastership that armed them, and the rules ignore a
// timer whose mastership has gone.
func (e *Engine) do(app AppID, r *role, ev event, a mastership.Action) {
	if e.replaying && a.Op != mastership.Store {
		return
	}
	m, round := r.Master, a.Stamp.Round
	switch a.Op {
	case mastership.Journal:
		// Before any network action: a crash from here on recovers as
		// master at this epoch, never as a node that half-claimed a root.
		e.journal(walMaster{Rep: e.image(m, a.Stamp)})
	case mastership.JournalRound:
		e.journal(walRound{App: app, Round: round})
	case mastership.JournalOffer:
		e.journal(walReplica{Rep: *ev.Image})
	case mastership.Claim:
		// Claiming installs the owner's tree parameters. A bumped epoch
		// restarts the tree's multicast stream, and the claim drops the
		// rounds this node flushed as an interior node, or in the instance a
		// retry aborts, so they aggregate afresh.
		e.ps.CreateWithConfig(app, pubsub.TreeConfig{
			MaxFanout:  m.Spec.TreeFanout,
			AggTimeout: m.Spec.RoundDeadline,
			Epoch:      uint64(a.Stamp.Epoch),
		})
	case mastership.Replicate:
		e.replicate(e.image(m, a.Stamp))
	case mastership.Publish:
		e.ps.Publish(app, roundStart{
			App:           app,
			Round:         round,
			Sizes:         m.Spec.Sizes,
			Params:        append([]float64(nil), m.Global...),
			Cfg:           m.Spec.Cfg,
			Participation: m.Spec.Participation,
			Compressor:    m.Spec.Compressor,
			TopK:          m.Spec.TopK,
			NoiseSigma:    m.Spec.NoiseSigma,
			Seed:          m.Spec.Seed,
		})
	case mastership.Fold:
		if r.pending.Acc == nil {
			r.pending = r.flush
		} else if merged, ok := mergeUpdates(r.pending, r.flush).(updateAgg); ok {
			r.pending = merged
		}
	case mastership.Hold:
		e.env.Metrics().Counter("fl.round_holds").Inc()
		wait := m.Spec.RoundDeadline
		if wait <= 0 {
			wait = time.Second
		}
		epoch := a.Stamp.Epoch
		e.env.After(wait, func() {
			e.step(app, r, event{Kind: mastership.Deadline, Image: m, Round: round, Epoch: epoch})
		})
	case mastership.Retry:
		e.env.Metrics().Counter("fl.round_retries").Inc()
		r.pending = updateAgg{}
	case mastership.Commit:
		e.commit(app, r, a)
	case mastership.Promoted:
		e.ctrPromotions.Inc()
	case mastership.ArmGrace:
		e.env.After(e.opts.FailoverGrace, func() {
			e.step(app, r, event{Kind: mastership.Grace, Image: m, Round: round})
		})
	case mastership.ArmTick:
		e.env.After(e.opts.FailoverGrace, func() {
			info, ok := e.ps.TreeInfo(app)
			e.step(app, r, event{Kind: mastership.Grace, Image: m, Round: round, Empty: ok && len(info.Children) == 0})
		})
	case mastership.ArmCheck:
		if r.check == nil {
			// One closure for the life of the role: a holder re-arms it
			// every interval.
			r.check = func() {
				r.checking = false
				e.step(app, r, event{Kind: mastership.Check})
			}
		}
		if !r.checking {
			r.checking = true
			e.env.After(e.opts.ReplicaCheckInterval, r.check)
		}
	case mastership.Store:
		e.step(app, r, event{Kind: mastership.Keep, Image: ev.Image})
	case mastership.SendImage:
		e.env.Send(a.To.Addr, e.image(m, a.Stamp).own())
	case mastership.SendPing:
		e.env.Send(a.To.Addr, masterPing{App: app, From: e.self.Addr})
	}
}

// commit applies a committed round's aggregate to the model, records the
// round and evaluates the model: the work between the rules' quorum
// decision and their Done decision, which takes the accuracy as input.
func (e *Engine) commit(app AppID, r *role, a mastership.Action) {
	m, u := r.Master, r.pending
	r.pending = updateAgg{}
	if u.Acc != nil {
		u.Acc.ApplyMean(m.Global)
		fl.Recycle(u.Acc) // its last reader (DESIGN.md §4.1)
	}
	acc := 0.0
	if e.opts.Eval != nil {
		acc = e.opts.Eval(app, m.Global)
	}
	now := e.env.Now()
	// Round telemetry is emitted here, on the event loop, so it stays
	// deterministic under the simulator (never from training goroutines).
	reg := e.env.Metrics()
	e.ctrRounds.Inc()
	reg.Counter("fl.rounds").Inc()
	reg.Counter("fl.participants").Add(int64(a.Count))
	reg.Counter("fl.update_bytes").Add(int64(u.Bytes))
	reg.Histogram("fl.update_size", obs.ByteBuckets).Observe(float64(u.Bytes))
	reg.Gauge("fl.accuracy").Set(acc)
	m.Points = append(m.Points, workload.AccuracyPoint{
		Time: now, Round: a.Stamp.Round, Accuracy: acc, Participants: a.Count,
	})
	if e.AckHook != nil {
		e.AckHook(app, a.Stamp.Epoch, a.Stamp.Round, a.Count, true)
	}
	e.step(app, r, event{Kind: mastership.Evaluated, Accuracy: acc, Now: now})
}
