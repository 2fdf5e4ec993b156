package pubsub

import (
	"totoro/internal/ids"
	"totoro/internal/obs"
)

// Publish routes obj to the topic root, which multicasts it down the tree
// (the Broadcast API: the master disseminates the model to the workers).
func (n *Node) Publish(topic ids.ID, obj any) {
	if st, ok := n.topics[topic]; ok && st.isRoot {
		n.multicast(st, obj)
		return
	}
	// Publishing from inside round handling can self-deliver when this
	// node turns out to own the topic key: the PublishMsg arm either
	// multicasts (isRoot, handled above) or adopts root and multicasts —
	// both read only topic state this caller does not hold half-updated.
	//lint:ignore reentry rendezvous publish: synchronous self-delivery lands in Deliver's PublishMsg arm, which observes no caller state mid-update
	n.ring.Route(topic, PublishMsg{Topic: topic, Object: obj})
}

func (n *Node) multicast(st *topicState, obj any) {
	n.mcAdvance(st, st.ownerCfg.Epoch)
	st.seq++
	m := Multicast{Topic: st.topic, Epoch: st.mcEpoch, Seq: st.seq, Depth: 0, Object: obj}
	n.recordMulticast(st, &m)
	n.recordDeliver(st, 0)
	if n.handlers.OnDeliver != nil {
		n.handlers.OnDeliver(st.topic, obj, 0, st.subscribed)
	}
	n.forwardMulticast(st, &m)
}

// handleMulticast delivers and forwards a multicast. m is read, not kept:
// it may be an envelope that goes back to its sender once Receive returns.
func (n *Node) handleMulticast(m *Multicast) {
	st := n.state(m.Topic)
	if !n.recordMulticast(st, m) {
		return // duplicate (retransmission overlap)
	}
	n.recordDeliver(st, m.Depth)
	if n.handlers.OnDeliver != nil {
		n.handlers.OnDeliver(m.Topic, m.Object, m.Depth, st.subscribed)
	}
	n.forwardMulticast(st, m)
}

// recordDeliver emits the telemetry for one multicast delivery: a counter,
// the depth histogram (tree-shape evidence, Fig 6), and a trace event from
// which experiments reconstruct per-round dissemination timing.
func (n *Node) recordDeliver(st *topicState, depth int) {
	n.ctrDeliveries.Inc()
	n.depthHist.Observe(float64(depth))
	note := "fwd"
	if st.subscribed {
		note = "sub"
	}
	n.env.Metrics().TraceID(obs.Event{
		At: n.env.Now(), Node: string(n.ring.Self().Addr),
		Kind: obs.KindPubSubDeliver, Hop: depth, Note: note,
	}, st.topic.Hi, st.topic.Lo)
}

// forwardMulticast sends m one level down. Every child is sent the same
// envelope, which goes back to the free list after the last child's delivery.
//
//vet:noalloc amortized
func (n *Node) forwardMulticast(st *topicState, m *Multicast) {
	kids := st.children
	if len(kids) == 0 {
		return
	}
	box := n.mcFree
	if box == nil {
		box = new(Multicast)
	}
	n.mcFree = box.next
	*box = *m
	box.Depth++
	box.envelope = envelope[Multicast]{home: n, pending: int32(len(kids))}
	for _, c := range kids {
		n.ctrMulticasts.Inc()
		n.env.Send(c.Addr, box)
	}
}

// mcCacheSize bounds the retransmission window: parents can serve the last
// mcCacheSize multicasts to children that missed them.
const mcCacheSize = 16

// mcWindowBits is how many sequences back from mcLast a member remembers
// having delivered: the 64 bits of topicState.mcWindow.
const mcWindowBits = 4 * mcCacheSize

var _ = [1]struct{}{}[mcWindowBits-64] // compiles only at 64: mcWindow is a uint64

// mcDelivered reports whether seq is in the delivery window and marked
// delivered. A sequence behind the window is forgotten, not delivered: if it
// re-arrives it is new again, and a catch-up scan asks for it again.
func (st *topicState) mcDelivered(seq uint64) bool {
	back := st.mcLast - seq
	return seq <= st.mcLast && back < mcWindowBits && st.mcWindow>>back&1 != 0
}

// mcAdvance moves the topic's reliable-multicast state to a newer stream
// epoch. A higher epoch means a new root generation (failover promotion
// or a crash-restarted master re-claiming its tree): the new root
// restarts Seq from 1, so every per-sequence structure from the old
// generation — dedup set, retransmission cache, baseline, high-water mark
// — must be discarded or it would silently swallow the new stream. The
// old generation's in-flight aggregation rounds are void for the same
// reason (the new root re-announces the round it found incomplete, and
// flushed aggRound state from the first announcement would suppress the
// re-aggregation), so they are cleared too, cancelling their deadline
// timers. It reports whether epoch is current-or-newer; a lower epoch is
// a stale stream the caller must drop.
func (n *Node) mcAdvance(st *topicState, epoch uint64) bool {
	if epoch < st.mcEpoch {
		return false
	}
	if epoch == st.mcEpoch {
		return true
	}
	st.mcEpoch = epoch
	st.seq = 0
	st.mcLast, st.mcBase = 0, 0
	st.mcWindow, st.mcCache = 0, nil
	n.dropRounds(st)
	return true
}

// recordMulticast registers a received (or originated) multicast for the
// reliable-multicast machinery: duplicate suppression, a bounded
// retransmission cache, and gap detection (a sequence jump means earlier
// broadcasts were lost in flight; the node re-requests them from its
// parent). It reports whether the multicast is new.
func (n *Node) recordMulticast(st *topicState, m *Multicast) bool {
	if !n.mcAdvance(st, m.Epoch) {
		return false // stale root generation
	}
	if st.mcDelivered(m.Seq) {
		return false
	}
	if st.mcCache == nil {
		st.mcCache = make([]mcCached, mcCacheSize)
	}
	if m.Seq > st.mcLast {
		if st.mcBase == 0 {
			st.mcBase = m.Seq
		}
		if st.mcLast > 0 && m.Seq > st.mcLast+1 { // a gap behind the new head
			n.nack(st, st.mcLast+1, m.Seq-1)
		}
		// Slide the window up to the new head (a shift of 64 or more
		// empties it) and mark the head.
		st.mcWindow = st.mcWindow<<(m.Seq-st.mcLast) | 1
		st.mcLast = m.Seq
	} else if back := st.mcLast - m.Seq; back < mcWindowBits {
		st.mcWindow |= 1 << back
	}
	// Cache it for retransmission unless it is already behind the window.
	// Two sequences that share a slot are mcCacheSize apart, so the one a
	// store overwrites has always left the window.
	if m.Seq+mcCacheSize > st.mcLast {
		st.mcCache[m.Seq%mcCacheSize] = mcCached{m.Epoch, m.Seq, m.Depth, m.Object}
	}
	return true
}

// nack asks the parent to retransmit the sequences in [from, to] this member
// has not delivered, the first mcCacheSize of them: no parent caches more.
func (n *Node) nack(st *topicState, from, to uint64) {
	var missing []uint64
	for s := from; s <= to && len(missing) < mcCacheSize; s++ {
		if !st.mcDelivered(s) {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 && !st.parent.IsZero() {
		n.env.Send(st.parent.Addr, McNack{Topic: st.topic, Child: n.ring.Self(), Missing: missing})
	}
}

// handleKeepAlive marks the parent alive and repairs loss: the heartbeat
// names the parent's newest multicast, and this member re-requests every
// sequence in the retransmittable window it never saw (earlier nacks may
// themselves have been lost).
func (n *Node) handleKeepAlive(m KeepAlive) {
	st := n.state(m.Topic)
	if st.parent.Addr != m.Parent.Addr {
		return
	}
	st.lastSeen = n.env.Now()
	if m.LastSeq == 0 || m.Epoch < st.mcEpoch {
		return // nothing sent yet, or a stale stream whose numbers mean nothing now
	}
	if m.Epoch > st.mcEpoch || st.mcLast == 0 && st.mcBase > m.LastSeq {
		// The parent is on a newer root generation than any broadcast this
		// node has seen (sequence numbers are not comparable across
		// generations, so the window cannot answer; the retransmission carries
		// the new epoch and resets local state), or this node joined after
		// every broadcast the parent knows: ask for the newest one only, the
		// current model, rather than history it never owed.
		n.env.Send(st.parent.Addr, McNack{Topic: st.topic, Child: n.ring.Self(), Missing: []uint64{m.LastSeq}})
		return
	}
	// The cache's window, from this member's baseline on: history before it
	// joined is not owed.
	n.nack(st, max(st.mcBase, m.LastSeq+1-min(m.LastSeq, mcCacheSize)), m.LastSeq)
}

// handleNack retransmits cached multicasts a child reports missing. An
// honest nack names each sequence once and at most mcCacheSize of them
// (nack), so every entry past that, and every repeat of a sequence already
// served, would only multiply this node's upload: it is dropped and counted.
func (n *Node) handleNack(m McNack) {
	st, ok := n.topics[m.Topic]
	if !ok {
		return
	}
	rejected := max(len(m.Missing)-mcCacheSize, 0)
	var served uint64 // bit i: cache slot i went out; a cached sequence has a slot of its own
	for _, seq := range m.Missing[:len(m.Missing)-rejected] {
		mc, ok := st.cached(seq)
		if bit := uint64(1) << (seq % mcCacheSize); ok && served&bit != 0 {
			rejected++
		} else if ok {
			served |= bit
			n.env.Send(m.Child.Addr, Multicast{
				Topic: mc.Topic, Epoch: mc.Epoch, Seq: mc.Seq, Depth: mc.Depth + 1, Object: mc.Object,
			})
		}
	}
	if rejected > 0 { // registered by the first drop, as pubsub.pruned_partials is
		n.env.Metrics().Counter("pubsub.rejected_nacks").Add(int64(rejected))
	}
}

// mcCached is a multicast as the retransmission cache keeps it: its topic
// is the cache's, and the envelope it came in is not kept.
type mcCached struct {
	epoch, seq uint64
	depth      int
	object     any
}

// cached returns the multicast with the given sequence number if it is
// still inside the retransmission window (the last mcCacheSize sequences).
func (st *topicState) cached(seq uint64) (Multicast, bool) {
	if st.mcCache == nil || seq == 0 || seq+mcCacheSize <= st.mcLast {
		return Multicast{}, false
	}
	c := st.mcCache[seq%mcCacheSize]
	if c.seq != seq {
		return Multicast{}, false
	}
	return Multicast{Topic: st.topic, Epoch: c.epoch, Seq: c.seq, Depth: c.depth, Object: c.object}, true
}
