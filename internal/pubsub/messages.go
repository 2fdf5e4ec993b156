// Package pubsub implements Totoro's publish/subscribe-based forest
// abstraction (paper §4.3) on top of the internal/ring overlay.
//
// Every FL application is a topic whose ID is the application's AppId.
// Nodes interested in an application route a JOIN message toward the AppId;
// the unions of all JOIN paths form a dynamically-structured dataflow tree
// rooted at the rendezvous node (the node whose NodeId is numerically
// closest to the AppId). That root is the application's master; interior
// nodes act as aggregator/forwarders; subscribers at the leaves are the
// workers. All trees together form the forest: because AppIds are uniform
// hashes, roots and branches spread evenly over the node population, which
// is the load-balance property measured in Fig 5.
//
// The tree supports downstream multicast (model broadcast), upstream
// in-network aggregation (gradient aggregation with a per-application
// combiner), keep-alive based failure detection, and local, parallel
// repair: an orphaned child simply re-routes its JOIN toward the AppId
// (§4.5).
package pubsub

import (
	"time"

	"totoro/internal/ids"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// Message is the marker interface for pub/sub wire messages.
type Message interface{ pubsubMessage() }

// JoinMsg subscribes a node to a topic's tree. It is usually carried inside
// a ring envelope routed toward the topic ID and intercepted hop by hop;
// it is sent directly only when a full parent redirects a join to one of
// its children (fanout push-down).
type JoinMsg struct {
	Topic      ids.ID
	Subscriber ring.Contact
	// Forwarder indicates the subscriber joins as pure forwarder (it is on
	// the path of someone else's join and should not receive multicasts as
	// a worker).
	Forwarder bool
}

func (JoinMsg) pubsubMessage() {}

// Welcome tells a new child who its parent is and hands down the tree's
// owner-set configuration. LastSeq is the parent's newest multicast
// sequence at adoption time: the child owes (and will repair) every
// broadcast after it, and no history before it. Epoch is the stream
// generation LastSeq belongs to (the parent's view); a child on an older
// generation resets its multicast state and re-baselines.
type Welcome struct {
	Topic   ids.ID
	Parent  ring.Contact
	Cfg     TreeConfig
	Epoch   uint64
	LastSeq uint64
}

func (Welcome) pubsubMessage() {}

// TreeConfig is the per-application tree parameterization the owner sets
// at CreateTree time (§4.3: "creates a dynamic-structured dataflow tree
// and configures the parameters (e.g., fanout)"). It propagates to every
// member through Welcome messages and overrides the node-level defaults
// for that topic only.
type TreeConfig struct {
	// MaxFanout caps children per node for this tree; joins beyond the cap
	// are pushed down to an existing child. Zero leaves the natural fanout
	// of the overlay (≈2^B) unenforced.
	MaxFanout int
	// AggTimeout flushes this tree's rounds after the deadline even if
	// children are missing — per-application semi-synchronous rounds
	// (0 = node default).
	AggTimeout time.Duration
	// Epoch is the root generation of the tree's multicast stream. A new
	// root (a failover promotion or a crash-restarted master re-claiming
	// its tree) restarts Seq from 1 under a higher Epoch; members reset
	// their reliable-multicast dedup state when the epoch advances, so the
	// new stream is not suppressed by sequence numbers the old root
	// already used. Streams with a lower epoch than a member has seen are
	// stale and dropped.
	Epoch uint64
}

// CreateMsg claims the topic's rendezvous node as the tree root (the
// paper's CreateTree API). Carried in a ring envelope.
type CreateMsg struct {
	Topic   ids.ID
	Creator ring.Contact
	Cfg     TreeConfig
}

func (CreateMsg) pubsubMessage() {}

// PublishMsg carries an object to the root for downstream multicast.
// Carried in a ring envelope routed toward the topic.
type PublishMsg struct {
	Topic  ids.ID
	Object any
}

func (PublishMsg) pubsubMessage() {}

// WireSize charges header plus object.
func (p PublishMsg) WireSize() int { return 24 + transport.SizeOf(p.Object) }

// Multicast flows from the root down the tree (model broadcast). Seq
// numbers the stream within one root generation (Epoch); dedup and gap
// detection are per (Epoch, Seq).
type Multicast struct {
	Topic  ids.ID
	Epoch  uint64
	Seq    uint64
	Depth  int
	Object any
	envelope[Multicast]
}

func (Multicast) pubsubMessage() {}

// WireSize charges header plus object.
func (m Multicast) WireSize() int { return 40 + transport.SizeOf(m.Object) }

// Recycle counts one child's delivery of a forwarded multicast and hands the
// box back to its sender's free list after the last (transport.Recycler).
func (m *Multicast) Recycle() {
	if home := m.home; m.delivered() {
		*m = recycledMulticast
		m.next, home.mcFree = home.mcFree, m
	}
}

// Upstream flows from children to parents carrying (partially aggregated)
// updates for one round (gradient aggregation).
type Upstream struct {
	Topic ids.ID
	Round int
	From  ring.Contact
	// Epoch is the tree generation the sender aggregated under. After a
	// failover the new root re-announces the round it found incomplete
	// under a bumped epoch; a partial aggregated under the old generation
	// must be discarded, never merged — the same clients resubmit to the
	// new announcement, so folding the stale partial in would double-count
	// every contribution in the sender's subtree.
	Epoch uint64
	// Count is the number of raw contributions folded into Object.
	Count int
	// Seq numbers every upstream this sender emits for this topic (from 1;
	// 0 means unset). Receivers drop an (From, Seq) pair they have already
	// merged into the round, so a network-duplicated upstream cannot
	// double-count its contributions. The counter restarts when the sender
	// reboots, which is safe because dedup is scoped per aggregation round.
	Seq uint64
	// Object is the combined update of the sender's subtree (nil when the
	// subtree had nothing to contribute).
	Object any
	envelope[Upstream]
}

func (Upstream) pubsubMessage() {}

// WireSize charges header plus object.
func (u Upstream) WireSize() int { return 56 + transport.SizeOf(u.Object) }

// Recycle hands u back to its sender's free list after its one delivery
// (transport.Recycler).
func (u *Upstream) Recycle() {
	if home := u.home; u.delivered() {
		*u = recycledUpstream
		u.next, home.upFree = home.upFree, u
	}
}

// envelope is what a message of type T sent by reference from a node's free
// list carries besides its fields, and it is not on the wire: the node it goes
// back to, how many deliveries it still awaits, and, while it is on that
// list, the next message there.
type envelope[T any] struct {
	home    *Node
	pending int32
	next    *T
}

// delivered counts one delivery and reports whether the message now goes
// back: it came from a free list and that was its last delivery.
func (e *envelope[T]) delivered() bool {
	e.pending--
	return e.home != nil && e.pending == 0
}

// What a recycled message is overwritten with: zero values, which drop the
// object, or sentinels under the poisonrecycle build tag (poison.go).
var (
	recycledUpstream  Upstream
	recycledMulticast Multicast
)

// KeepAlive is the parent→child heartbeat used for failure detection. It
// piggybacks the parent's highest multicast sequence (and the stream
// epoch it belongs to) so a child can detect a lost trailing broadcast
// and re-request it (reliable multicast).
type KeepAlive struct {
	Topic   ids.ID
	Parent  ring.Contact
	Epoch   uint64
	LastSeq uint64
}

func (KeepAlive) pubsubMessage() {}

// WireSize reports a small heartbeat frame.
func (KeepAlive) WireSize() int { return 32 }

// McNack asks the parent to retransmit missed multicast sequences
// (reliable multicast: gap detection + bounded retransmission cache).
type McNack struct {
	Topic   ids.ID
	Child   ring.Contact
	Missing []uint64
}

func (McNack) pubsubMessage() {}

// WireSize grows with the gap list.
func (m McNack) WireSize() int { return 32 + 8*len(m.Missing) }

// LeaveMsg detaches a child from its parent.
type LeaveMsg struct {
	Topic ids.ID
	Child ring.Contact
}

func (LeaveMsg) pubsubMessage() {}
