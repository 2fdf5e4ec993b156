package pubsub

import (
	"cmp"
	"slices"

	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// roundHorizon is how many rounds a flushed round is kept behind the newest:
// a round opened more than roundHorizon rounds after the oldest held one
// takes over its slot, and from then on a partial for a round below the
// topic's floor is dropped and counted (pubsub.pruned_partials).
const roundHorizon = 2

// aggRound tracks one round's in-network aggregation at one node. All of it
// is cut from the topic's storage (carve), so a round allocates nothing.
//
// Once flushed, a round is a tombstone: flush releases combined, kids and
// cancel, and what stays (flushed, selfDone, count, seen) is what routes
// stragglers and drops duplicates. The oldest tombstone lives until a round
// more than roundHorizon newer opens; that round reuses its slot, its words
// and its seen array, and raises the floor past it, so the round never comes
// back to life to merge stragglers it must forward.
type aggRound struct {
	round int
	// combined is the aggregate so far. It leaves by reference at the flush,
	// so from then on it belongs to whoever received it.
	combined any
	count    int
	// kids is the topic's copy-on-write children as the round began; bit i of
	// reported is set once kids[i] reports, and waiting counts those not set.
	// words is reported's storage, which outlives the flush for the slot's
	// next round.
	kids     []ring.Contact
	reported []uint64
	words    []uint64
	// seen holds every (sender, upstream-seq) pair folded into (or forwarded
	// for) this round, so a network-duplicated Upstream is dropped, not
	// double-counted: about one per kid, so a scanned slice sized with kids.
	seen              []upKey
	waiting           int32
	selfDone, flushed bool
	cancel            func()
}

// upKey identifies one Upstream emission for dedup.
type upKey struct {
	from transport.Addr
	seq  uint64
}

// SubmitUpdate contributes this node's update for an aggregation round
// (the Aggregate API). Pass obj == nil to report "nothing to contribute";
// interior nodes need the report to complete their round.
func (n *Node) SubmitUpdate(topic ids.ID, round int, obj any) {
	st := n.state(topic)
	r := n.round(st, round)
	if r == nil {
		return
	}
	r.selfDone = true
	if obj != nil || !r.flushed { // a late own nil has nothing to forward
		n.fold(st, r, obj, 1)
	}
}

// carve cuts n zero elements of capacity n from *pool, refilled a window's
// worth — roundHorizon+2 rounds of n — at a time.
func carve[T any](pool *[]T, n int) []T {
	if len(*pool) < n {
		*pool = make([]T, (roundHorizon+2)*n)
	}
	s := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return s
}

// findRound returns where the round numbered round is, or goes, in st.rounds,
// scanning the short window from its newest end, where rounds open.
func (st *topicState) findRound(round int) (int, bool) {
	i := len(st.rounds)
	for i > 0 && st.rounds[i-1].round >= round {
		i--
	}
	return i, i < len(st.rounds) && st.rounds[i].round == round
}

// round returns the window's slot for the round numbered round, opening it if
// the window does not hold it, or nil, counting the drop, if the round has
// left the window.
//
//vet:noalloc amortized
func (n *Node) round(st *topicState, round int) *aggRound {
	if round < st.floor {
		// Registered by the first drop, so a node that never drops does not
		// list the counter.
		n.env.Metrics().Counter("pubsub.pruned_partials").Inc()
		return nil
	}
	i, ok := st.findRound(round)
	if ok {
		return st.rounds[i]
	}
	var r *aggRound
	if old := st.rounds; len(old) > 0 && old[0].flushed && round-old[0].round > roundHorizon {
		// The oldest round is a tombstone past the horizon: the new round takes
		// its slot and storage, and it leaves the window for good.
		r, st.floor = old[0], old[0].round+1
		*r = aggRound{words: r.words, seen: r.seen[:0]}
		st.rounds, i = slices.Delete(old, 0, 1), i-1
	} else {
		r = &carve(&st.roundPool, 1)[0]
	}
	r.round = round
	st.rounds = slices.Insert(slices.Grow(st.rounds, max(roundHorizon+2-len(st.rounds), 0)), i, r)
	if k := len(st.children); k > 0 {
		w := (k + 63) / 64
		if len(r.words) < w {
			r.words = carve(&st.words, w)
		}
		if cap(r.seen) < k {
			r.seen = carve(&st.keys, k)[:0]
		}
		r.kids, r.waiting, r.reported = st.children, int32(k), r.words[:w]
		clear(r.reported)
	}
	// The owner's deadline for this tree, or else this node's default.
	if timeout := cmp.Or(st.ownerCfg.AggTimeout, n.cfg.AggTimeout); timeout > 0 {
		r.cancel = n.env.After(timeout, func() {
			if i, ok := st.findRound(round); ok && !st.rounds[i].flushed {
				n.recordMisses(st, st.rounds[i])
				n.ctrTimeoutFlushes.Inc()
				n.flush(st, st.rounds[i])
			}
		})
	}
	return r
}

// handleUpstream merges or forwards a child's partial. Like handleMulticast
// it reads m and keeps only its Object.
func (n *Node) handleUpstream(m *Upstream) {
	st := n.state(m.Topic)
	// Epoch-gate before touching round state: a partial aggregated under a
	// previous tree generation is divergent in-flight state and must be
	// discarded, not merged (its clients resubmit under the new epoch). A
	// newer epoch than ours means the root failed over and this node has
	// not seen the new stream yet — advance, which voids our own stale
	// rounds, then merge the partial into the fresh one.
	if !n.mcAdvance(st, m.Epoch) {
		n.ctrStaleUpstreams.Inc()
		return
	}
	r := n.round(st, m.Round)
	if r == nil {
		return
	}
	if m.Seq != 0 {
		// Drop duplicates before any merging or forwarding: the network can
		// deliver an Upstream twice (retry logic, injected faults), and the
		// combiner merges in place — a second merge would double-count every
		// client contribution in the sender's subtree.
		k := upKey{m.From.Addr, m.Seq}
		if slices.Contains(r.seen, k) {
			n.ctrUpstreamDupes.Inc()
			return
		}
		r.seen = append(r.seen, k)
	}
	if i, ok := childIndex(r.kids, m.From.Addr); ok && r.reported[i/64]&(1<<(i%64)) == 0 {
		r.reported[i/64], r.waiting = r.reported[i/64]|1<<(i%64), r.waiting-1
	}
	delete(st.missCount, m.From.Addr)
	n.fold(st, r, m.Object, m.Count)
}

// fold merges a contribution of count updates into round r and flushes the
// round once every report is in. A contribution that reaches r after its
// flush is forwarded untouched as a supplementary partial instead, so the
// root still counts it exactly once: r.combined was already forwarded
// upstream by reference (the in-memory transport does not copy messages, and
// the combiner merges in place), so merging into it would mutate the
// aggregate the parent holds and double-count the straggler.
func (n *Node) fold(st *topicState, r *aggRound, obj any, count int) {
	if r.flushed {
		n.forwardUp(st, r.round, obj, count)
		return
	}
	if obj != nil {
		r.combined = n.combine(st.topic, r.combined, obj)
		r.count += count
	}
	if r.selfDone && r.waiting <= 0 {
		n.flush(st, r)
	}
}

func (n *Node) flush(st *topicState, r *aggRound) {
	r.flushed = true
	if r.cancel != nil {
		r.cancel()
	}
	n.ctrFlushes.Inc()
	// The round stays in the window marked flushed so that stragglers
	// arriving later are forwarded upstream as supplementary partials instead
	// of resurrecting the round. Nothing reads the aggregate here again, so it
	// lives only as long as its receiver (the parent's merge, the root's
	// OnAggregate) holds it.
	obj := r.combined
	r.combined, r.kids, r.reported, r.cancel = nil, nil, nil, nil
	n.forwardUp(st, r.round, obj, r.count)
}

// forwardUp sends a round's partial to the parent in an envelope from the free
// list, or hands it to OnAggregate at the root.
//
//vet:noalloc amortized
func (n *Node) forwardUp(st *topicState, round int, obj any, count int) {
	if st.isRoot || st.parent.IsZero() {
		// Root aggregation completes here; the trace event is what the
		// experiments read aggregation-latency timings from.
		n.env.Metrics().TraceID(obs.Event{
			At: n.env.Now(), Node: string(n.ring.Self().Addr),
			Kind: obs.KindPubSubAgg, Hop: count, Note: "root",
		}, st.topic.Hi, st.topic.Lo)
		if n.handlers.OnAggregate != nil {
			n.handlers.OnAggregate(st.topic, round, obj, count)
		}
		return
	}
	n.ctrUpstreams.Inc()
	st.upSeq++
	up := n.upFree
	if up == nil {
		up = new(Upstream)
	}
	n.upFree = up.next
	*up = Upstream{
		Topic: st.topic, Round: round, From: n.ring.Self(), Epoch: st.mcEpoch,
		Object: obj, Count: count, Seq: st.upSeq, envelope: envelope[Upstream]{home: n, pending: 1},
	}
	n.env.Send(st.parent.Addr, up)
}

func (n *Node) combine(topic ids.ID, a, b any) any {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if n.handlers.Combine != nil {
		return n.handlers.Combine(topic, a, b)
	}
	return b
}

// childMissLimit is how many consecutive timed-out rounds a child may fail
// to report before the parent prunes it (a dead or partitioned subtree
// would otherwise make every round pay the full aggregation timeout).
const childMissLimit = 2

// recordMisses charges children that did not report before a timeout
// flush, pruning those past the limit.
func (n *Node) recordMisses(st *topicState, r *aggRound) {
	for i, c := range r.kids {
		if r.reported[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		if st.missCount == nil {
			st.missCount = make(map[transport.Addr]int)
		}
		st.missCount[c.Addr]++
		if st.missCount[c.Addr] >= childMissLimit {
			st.removeChild(c.Addr)
			delete(st.missCount, c.Addr)
		}
	}
}

// dropRounds cancels the topic's round timers and forgets its rounds, its
// floor and the per-child miss tallies that go with them.
func (n *Node) dropRounds(st *topicState) {
	for _, r := range st.rounds {
		if r.cancel != nil {
			r.cancel()
		}
	}
	st.rounds, st.floor, st.missCount = nil, 0, nil
}
