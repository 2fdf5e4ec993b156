// Package mastership is the one statement of an application's round and
// epoch rules at one node (DESIGN.md §4.2 tabulates them). Step updates one
// application's State and appends what the node must do to a caller-owned
// buffer of Actions: the engine executes them, WAL replay keeps only the
// state, and the explorer in this package's tests runs them on a model
// network.
package mastership

import (
	"time"

	"totoro/internal/ids"
	"totoro/internal/ring"
)

// Role is what a node is to one application.
type Role uint8

const (
	Bystander Role = iota // neither masters the app nor holds a replica
	Holder                // holds a master's replicated image
	Master                // masters the app (it may also hold a stale replica)
)

// Phase is where a master's current round stands.
type Phase uint8

const (
	Announced  Phase = iota // the mastership is claimed; training has not started
	Collecting              // a round has begun; its aggregate is not in
	Held                    // a flush fell short of quorum; the round is held open
	Retrying                // re-run once under a bumped epoch after its holds ran out
	Committed               // the image's round is committed; the next has not begun
)

// InFlight reports whether a round has begun and is not committed.
func (p Phase) InFlight() bool { return p == Collecting || p == Held || p == Retrying }

// Stamp is what the rules read and write of a mastership image. A master's
// Round is its current round; Epoch is its generation, and the higher wins.
type Stamp struct {
	Master                 ring.Contact // who sent the image
	Epoch, Round           int
	Started, Done, Reached bool
	DoneAt                 time.Duration
}

// Rules are the application's round policy.
type Rules struct {
	Quorum, MaxRounds int     // Quorum: client updates a round needs (at least 1)
	Target            float64 // accuracy that ends training; 0 = none
}

// Image is a mastership image as the rules see it: the engine's image type
// on its pointer, so Step reads and writes the image's own fields.
type Image interface {
	Stamp() Stamp
	SetStamp(Stamp)
	Rules() Rules
	Own() Image // a copy with its own model and trajectory, for promotion
}

type image interface {
	comparable
	Image
}

// State is one application at one node.
type State[P image] struct {
	Master  P     // this node's mastership, or nil
	Replica P     // the newest image a master replicated here, or nil
	Phase   Phase // of Master's current round
	Holds   int   // how often the current round's commit has been held
	Merged  int   // client updates folded into the current round
	Suspect int   // unanswered pings while the ring routes the app here
}

// Role reports what the node is to the application.
func (s *State[P]) Role() Role {
	var none P
	switch {
	case s.Master != none:
		return Master
	case s.Replica != none:
		return Holder
	}
	return Bystander
}

// Kind names an Event.
type Kind uint8

const (
	Announce  Kind = iota // the spec reached the rendezvous; Image is a fresh mastership
	Start                 // the owner asked for training to start
	Probe                 // tree traffic reached the rendezvous: promote if the master is gone
	Check                 // the holder's periodic ownership probe
	Flush                 // the tree flushed Count client updates of Round at the root
	Deadline              // the hold of Round at Epoch, armed by Image, expired
	Evaluated             // the committed model scored Accuracy at Now
	Grace                 // the wait to resume Round, armed by Image, expired; Empty: the tree has no children
	Resume                // restart: re-claim the recovered mastership
	Offer                 // a master's Image arrived
	Keep                  // store Image as the replica (an Offer's Store; a restart's probes)
	Ping                  // From asks whether this node still masters the app
	Restore               // journaled: this node's mastership Image
)

// Event is one input to Step. Accuracy is an input: the executor evaluates
// between Commit and Evaluated.
type Event[P any] struct {
	Kind                Kind
	Self, From          ring.Contact // the stepping node; a Ping's sender
	App                 ids.ID
	Image               P
	Owns, Empty         bool // Owns: the ring routes App to Self (set while a replica is held)
	Round, Epoch, Count int
	Now                 time.Duration
	Accuracy            float64
}

// Op names an Action.
type Op uint8

const (
	Journal      Op = iota // journal the master image at Stamp
	JournalRound           // journal that Stamp.Round began
	JournalOffer           // journal the offered image before acting on it
	Claim                  // claim the tree root at Stamp.Epoch; drop this node's stale rounds
	Replicate              // acknowledge: ship the image at Stamp to the leaf set
	Publish                // multicast Stamp.Round's round start with the current model
	Fold                   // merge the flushed aggregate into the round's
	Hold                   // count a hold; arm Deadline for Stamp.Round at Stamp.Epoch
	Retry                  // count a retry; drop the round's aggregate
	Commit                 // apply the round's aggregate of Count updates, record Stamp.Round, step Evaluated
	Promoted               // count a promotion
	ArmGrace               // arm Grace for Stamp.Round
	ArmTick                // arm Grace for Stamp.Round, reporting whether the tree is empty
	ArmCheck               // arm Check, unless armed
	Disown                 // leave the tree root; the round's aggregate dies with the mastership
	Store                  // step Keep with the offered image
	SendImage              // send the master image at Stamp to To
	SendPing               // ping To
)

// Action is one thing the node must do, in order.
type Action struct {
	Op    Op
	Stamp Stamp
	To    ring.Contact
	Count int
}

const (
	// maxHolds bounds how many times a below-quorum round is held open
	// (one round deadline per hold) before the master commits whatever it
	// merged. The bound preserves liveness when a participation-sampled
	// round legitimately selects nobody or the fleet has genuinely shrunk;
	// the holds give tree repair, stale stragglers and failover
	// reconciliation time to either deliver real updates or demote a
	// vacuous master.
	maxHolds = 3
	// probeTries is how many consecutive unanswered pings a holder needs
	// before concluding the master is gone. Two checks tolerate one dropped
	// ping or reply without delaying real failover by more than one
	// ReplicaCheckInterval.
	probeTries = 2
)

// Step applies ev to s and appends the node's actions to out. Each
// action's Stamp is the image as of that action.
//
//vet:noalloc amortized
func Step[P image](s *State[P], ev Event[P], out []Action) []Action {
	var none P
	promoted := false
	switch ev.Kind {
	case Announce:
		// A re-announced app resumes from the replica, not a fresh start.
		if out, promoted = s.promote(ev, out); promoted || s.Master != none {
			return out
		}
		s.become(ev.Image, Announced)
		return s.claim(out)
	case Start:
		if out, _ = s.promote(ev, out); s.Master == none {
			return out
		}
		if v := s.Master.Stamp(); !v.Started && !v.Done {
			v.Started = true
			s.Master.SetStamp(v)
			return s.begin(s.ack(out), Collecting)
		}
	case Probe:
		out, _ = s.promote(ev, out)
	case Check:
		if s.Replica == none || s.Replica.Stamp().Done || s.Master != none {
			return out
		}
		if out, promoted = s.promote(ev, out); !promoted {
			out = append(out, Action{Op: ArmCheck})
		}
	case Flush:
		// Only the round is checked: a promoted master folds late partials
		// of its predecessor's committed round.
		if s.Master == none || s.Master.Stamp().Done || ev.Round != s.Master.Stamp().Round {
			return out
		}
		if ev.Count > 0 {
			s.Merged += ev.Count
			out = append(out, Action{Op: Fold})
		}
		return s.decide(out)
	case Deadline:
		if s.current(ev) && s.Phase.InFlight() && s.Master.Stamp().Epoch == ev.Epoch {
			return s.decide(out)
		}
	case Evaluated:
		v, r := s.Master.Stamp(), s.Master.Rules()
		if reached := r.Target > 0 && ev.Accuracy >= r.Target; reached || v.Round >= r.MaxRounds {
			v.Done, v.Reached, v.DoneAt = true, reached, ev.Now
			s.Master.SetStamp(v)
		}
		// The committed round is journaled before anything is replicated or
		// broadcast: a crash from here on recovers to this round, not the
		// previous one. The final image carries Done, which also stops the
		// holders' probes.
		if out = s.ack(out); !v.Done {
			out = s.begin(out, Collecting)
		}
	case Grace:
		switch {
		case !s.current(ev):
		case ev.Empty:
			// Don't begin a round into an empty tree: right after a restart
			// the workers are still parked under the interim root (or
			// mid-rejoin), and a childless root would complete every
			// remaining round at once with zero participants.
			out = append(out, Action{Op: ArmTick, Stamp: s.Master.Stamp()})
		default:
			out = s.begin(out, Collecting)
		}
	case Resume:
		v := s.Master.Stamp()
		v.Epoch++ // demotes whoever promoted itself during the outage
		s.Master.SetStamp(v)
		if out = s.claim(out); v.Started && !v.Done {
			out = append(out, Action{Op: ArmTick, Stamp: v})
		}
	case Offer:
		return s.offer(ev, append(out, Action{Op: JournalOffer}))
	case Keep:
		v := ev.Image.Stamp()
		if s.Replica != none && !Newer(v, s.Replica.Stamp()) {
			return out
		}
		s.Suspect, s.Replica = 0, ev.Image // a fresh image proves a live master
		if v.Started && !v.Done {
			out = append(out, Action{Op: ArmCheck})
		}
	case Ping:
		if s.Master != none && ev.From.Addr != ev.Self.Addr && ev.From.Addr != "" {
			out = append(out, Action{Op: SendImage, To: ev.From, Stamp: s.Committed()})
		}
	case Restore:
		s.become(ev.Image.Own().(P), idle(ev.Image.Stamp()))
		s.Replica = none
	}
	return out
}

// Committed is the master's image as of its last committed round. Claims
// and acks only happen between rounds, but a snapshot or a ping can catch
// the master mid-round, and an image claiming the in-flight round would put
// a replica ahead of the master's acks: the round's aggregate dies with its
// master anyway, and whoever takes over re-runs it.
func (s *State[P]) Committed() Stamp {
	v := s.Master.Stamp()
	if s.Phase.InFlight() {
		v.Round--
	}
	return v
}

// Newer reports whether image a supersedes image b.
func Newer(a, b Stamp) bool {
	switch {
	case a.Epoch != b.Epoch:
		return a.Epoch > b.Epoch
	case a.Round != b.Round:
		return a.Round > b.Round
	case a.Done != b.Done:
		return a.Done
	case a.Started != b.Started:
		return a.Started
	}
	return true // the same version: take the fresher copy
}

func idle(v Stamp) Phase {
	if v.Started {
		return Committed
	}
	return Announced
}

func (s *State[P]) become(m P, p Phase) { s.Master, s.Phase, s.Holds, s.Merged = m, p, 0, 0 }

// current reports whether the timer behind ev belongs to this node's live,
// unfinished mastership, at the round it was armed for: the one guard of
// every timer.
func (s *State[P]) current(ev Event[P]) bool {
	var none P
	return s.Master != none && s.Master == ev.Image && !s.Master.Stamp().Done && s.Master.Stamp().Round == ev.Round
}

// claim takes a mastership: journal it before any network action, claim
// the root under its epoch, replicate.
func (s *State[P]) claim(out []Action) []Action {
	v := s.Master.Stamp()
	return append(out, Action{Op: Journal, Stamp: v}, Action{Op: Claim, Stamp: v}, Action{Op: Replicate, Stamp: v})
}

// ack acknowledges the master's state: journal it, then replicate it.
func (s *State[P]) ack(out []Action) []Action {
	v := s.Master.Stamp()
	return append(out, Action{Op: Journal, Stamp: v}, Action{Op: Replicate, Stamp: v})
}

// begin starts the master's next round. Holds and the merged count carry
// over from a flush folded while no round was in flight.
func (s *State[P]) begin(out []Action, p Phase) []Action {
	v := s.Master.Stamp()
	v.Round++
	s.Master.SetStamp(v)
	s.Phase = p
	return append(out, Action{Op: JournalRound, Stamp: v}, Action{Op: Publish, Stamp: v})
}

// decide is the quorum rule, run at every flush and hold deadline.
func (s *State[P]) decide(out []Action) []Action {
	v, quorum := s.Master.Stamp(), s.Master.Rules().Quorum
	if s.Merged < max(1, quorum) {
		if s.Holds < maxHolds {
			// Below quorum. Hold the round open instead of committing a
			// nearly-empty step: supplementary partials (a straggler
			// subtree, workers back from a healed partition) re-enter and
			// commit it for real, and a master promoted into an empty tree
			// stalls harmlessly until reconciliation demotes it rather than
			// racing to MaxRounds on an untrained model.
			s.Holds++
			if s.Phase == Collecting {
				s.Phase = Held
			}
			return append(out, Action{Op: Hold, Stamp: v})
		}
		if quorum > 1 && s.Phase != Retrying {
			// Holds exhausted and still below quorum: the missing updates
			// are not late, they are gone, merged into partials that died
			// with a failed interior aggregator, and merged partials cannot
			// be resent without counting a client twice. Abort the
			// aggregation instance wholesale: a bumped epoch (exactly like a
			// promotion onto itself) makes every hop's upstream epoch gate
			// drop its partials, and the same round is announced again.
			// Workers retrain deterministically, so the retried commit is
			// the round the fault erased. One retry per round keeps
			// liveness bounded.
			v.Epoch++
			v.Round--
			s.Master.SetStamp(v)
			s.Holds, s.Merged = 0, 0
			return s.begin(s.claim(append(out, Action{Op: Retry})), Retrying)
		}
	}
	// Liveness: after maxHolds deadlines and at most one retry the round
	// commits whatever it merged.
	n := s.Merged
	s.Phase, s.Holds, s.Merged = Committed, 0, 0
	return append(out, Action{Op: Commit, Stamp: v, Count: n})
}

// offer is the epoch rule. A mastership the image does not outrank beats
// it back: the image goes no further, and its sender — a stale master that
// does not know it lost, after a healed partition or a lost epoch race —
// gets this master's image straight back, so heal resolves within one of
// the loser's replications. Otherwise a mastership here steps down (a
// higher-epoch master exists, or it lost the tie-break) and its in-flight
// round dies with it: the replica kept is the winner's image, so nothing
// of the divergent state merges into the app. The image is stored after
// the Disown: a subscribed root re-joins through the ring, which can route
// the JOIN straight back here, and a promotion it triggers must find
// nothing to promote from.
func (s *State[P]) offer(ev Event[P], out []Action) []Action {
	var none P
	if s.Master != none {
		mine, theirs := s.Master.Stamp(), ev.Image.Stamp()
		echo := theirs.Master.Addr == ev.Self.Addr
		// Same epoch: two masters promoted from the same replica
		// (inconsistent ring views). The one closer to the app key is the
		// rightful rendezvous node.
		if theirs.Epoch < mine.Epoch || theirs.Epoch == mine.Epoch && (echo || ids.Closer(ev.App, ev.Self.ID, theirs.Master.ID)) {
			if !echo && theirs.Master.Addr != "" {
				// Bug (ii): the round in flight, not Committed(), plants a
				// replica ahead of the acks (TestExplorerFindings).
				out = append(out, Action{Op: SendImage, To: theirs.Master, Stamp: mine})
			}
			return out
		}
		s.become(none, Announced)
		out = append(out, Action{Op: Disown})
	}
	return append(out, Action{Op: Store})
}

// promote makes the node master from its replica once the ring routes the
// app here and the replica's master left probeTries pings unanswered: ring
// evidence alone can scrub a live master on one lost hop-ack, and the
// spurious higher epoch would win reconciliation with an untrained model.
func (s *State[P]) promote(ev Event[P], out []Action) ([]Action, bool) {
	var none P
	if s.Replica == none || s.Master != none {
		return out, false
	}
	if !ev.Owns {
		s.Suspect = 0 // the key routes elsewhere: not this node's call
		return out, false
	}
	v := s.Replica.Stamp()
	if v.Master.Addr != "" && v.Master.Addr != ev.Self.Addr && s.Suspect < probeTries {
		s.Suspect++
		return append(out, Action{Op: SendPing, To: v.Master}), false
	}
	m := s.Replica.Own().(P)
	v.Epoch++ // demotes a revived predecessor
	m.SetStamp(v)
	s.Suspect, s.Replica = 0, none
	s.become(m, idle(v))
	out = s.claim(append(out, Action{Op: Promoted}))
	if v.Started && !v.Done {
		// Resume after a grace period that lets orphaned workers re-attach.
		out = append(out, Action{Op: ArmGrace, Stamp: v})
	}
	return out, true
}
