package pubsub

import (
	"cmp"
	"slices"
	"time"

	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// Config parameterizes the pub/sub layer of one node.
type Config struct {
	// KeepAliveInterval is the parent→children heartbeat period. Zero
	// disables heartbeats (deterministic experiments drive repair
	// explicitly).
	KeepAliveInterval time.Duration
	// KeepAliveTimeout is how long a child waits without heartbeats before
	// declaring its parent failed and re-joining. Defaults to 3× the
	// interval.
	KeepAliveTimeout time.Duration
	// AggTimeout flushes a partially aggregated round upstream if some
	// child has not reported in time (straggler/failure tolerance). Zero
	// disables the timer; rounds flush only on completeness.
	AggTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.KeepAliveTimeout == 0 {
		c.KeepAliveTimeout = 3 * c.KeepAliveInterval
	}
	return c
}

// Handlers are the application upcalls of the pub/sub layer.
type Handlers struct {
	// OnDeliver is invoked on every attached tree member a multicast
	// passes through — subscribers and pure forwarders alike; subscriber
	// distinguishes them. Depth is the number of tree levels traversed
	// from the root.
	OnDeliver func(topic ids.ID, obj any, depth int, subscriber bool)
	// Combine folds two subtree updates into one (must be associative and
	// commutative). Nil falls back to keeping the latest non-nil object.
	Combine func(topic ids.ID, a, b any) any
	// OnAggregate is invoked at the tree root when a round's aggregation
	// flushes, with the combined object and the contribution count. A
	// partial for a round that has left the root's window (one arriving
	// after a round more than roundHorizon newer opened there) is dropped,
	// not handed up.
	OnAggregate func(topic ids.ID, round int, obj any, count int)
}

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

// topicState is this node's view of one tree. Its maps are created by their
// first write.
type topicState struct {
	topic      ids.ID
	parent     ring.Contact
	isRoot     bool
	subscribed bool // participates as worker (receives multicasts)
	// children is strictly ascending by Addr, so every send or selection that
	// walks it happens in the same order in every run (send order decides
	// event order, hence floating-point merge order at aggregation points).
	// It is copy-on-write: setChild and removeChild install a new array and
	// never write the old one, so a loop ranging over it may add or remove
	// children and still visits each child it started with exactly once.
	children []ring.Contact
	lastSeen time.Duration // last keep-alive from parent
	joining  bool
	// ownerCfg carries the tree owner's per-tree parameter overrides
	// (fanout cap, aggregation deadline), learned from CreateMsg at the
	// root and from Welcome everywhere else.
	ownerCfg TreeConfig
	// rounds is the window of held rounds, sorted by number; every round
	// below floor has left it. The rounds, their bits and their pairs are
	// carved from chunks that never move, and a slot is reused only by a
	// round more than roundHorizon newer, so a *aggRound stays valid across
	// the re-entrant flush → OnAggregate → SubmitUpdate(round+1) chain.
	rounds    []*aggRound
	floor     int
	roundPool []aggRound
	words     []uint64
	keys      []upKey
	// missCount tracks consecutive timed-out rounds per child without a
	// report; children missing childMissLimit rounds in a row are dropped.
	missCount map[transport.Addr]int
	seq       uint64
	// upSeq numbers this node's Upstream emissions for the topic (dedup
	// at the receiver; see Upstream.Seq).
	upSeq uint64
	// Reliable multicast state: the root generation (epoch) the state
	// belongs to, highest sequence seen, the first sequence this member
	// ever saw (its baseline — history before it joined is not owed), the
	// window of delivered sequences (bit i = sequence mcLast-i; what falls
	// off its far end is forgotten, see mcDelivered), and a bounded cache of
	// recent multicasts for retransmissions. All of it is reset when the
	// epoch advances (mcAdvance): a new root restarts Seq from 1, and the
	// old generation's numbers must not suppress it.
	mcEpoch   uint64
	mcLast    uint64
	mcBase    uint64
	mcWindow  uint64
	mcCache   []mcCached // ring of mcCacheSize slots indexed by Seq; see cached
	kaStop    func()
	checkStop func()
	// adopted marks a root claimed implicitly — a JOIN or PUBLISH arrived
	// while this node happened to be the topic's rendezvous (typically
	// because the true owner was down). An adopted root periodically probes
	// ring ownership (ensureRootCheck) and hands the tree back once the key
	// routes elsewhere again; an owner-claimed root (CreateMsg) never does.
	adopted  bool
	rootStop func()
}

// Node implements the forest abstraction for one overlay node. It acts as
// the ring.App of its ring.Node and additionally consumes direct pub/sub
// messages.
type Node struct {
	env      transport.Env
	ring     *ring.Node
	cfg      Config
	handlers Handlers
	topics   map[ids.ID]*topicState
	// lastTopic is the state the last state() call returned: a member's
	// messages mostly concern one tree, and this spares them hashing the
	// 128-bit key. maybeLeave clears it when it deletes that topic.
	lastTopic *topicState
	// upFree and mcFree head the free lists of the Upstreams and forwarded
	// Multicasts this node sent and got back (transport.Recycler), threaded
	// through their envelopes, for its next sends to reuse.
	upFree *Upstream
	mcFree *Multicast

	// Cached handles into env.Metrics() — see the "pubsub.*" names below.
	ctrMulticasts     *obs.Counter
	ctrUpstreams      *obs.Counter
	ctrUpstreamDupes  *obs.Counter
	ctrStaleUpstreams *obs.Counter
	ctrRepairs        *obs.Counter
	ctrJoinIntercepts *obs.Counter
	ctrFlushes        *obs.Counter
	ctrTimeoutFlushes *obs.Counter
	ctrDeliveries     *obs.Counter
	ctrRootHandoffs   *obs.Counter
	depthHist         *obs.Histogram
}

// New wires a pub/sub node onto an existing ring node and registers itself
// as the ring's application.
func New(env transport.Env, rn *ring.Node, cfg Config) *Node {
	n := &Node{env: env, ring: rn, cfg: cfg.withDefaults()}
	m := env.Metrics()
	n.ctrMulticasts = m.Counter("pubsub.multicasts_sent")     // per-child multicast sends
	n.ctrUpstreams = m.Counter("pubsub.upstreams_sent")       // partial aggregates sent to parent
	n.ctrUpstreamDupes = m.Counter("pubsub.upstream_dupes")   // duplicated upstreams dropped by seq dedup
	n.ctrStaleUpstreams = m.Counter("pubsub.stale_upstreams") // old-tree-generation partials discarded, not merged
	n.ctrRepairs = m.Counter("pubsub.repairs")                // parent failures repaired by re-join
	n.ctrJoinIntercepts = m.Counter("pubsub.join_intercepts") // joins spliced before the root
	n.ctrFlushes = m.Counter("pubsub.flushes")                // aggregation rounds flushed upstream
	n.ctrTimeoutFlushes = m.Counter("pubsub.timeout_flushes") // ... of which by straggler deadline
	n.ctrDeliveries = m.Counter("pubsub.deliveries")          // multicast deliveries at this node
	n.ctrRootHandoffs = m.Counter("pubsub.root_handoffs")     // adopted roots handed back to the owner
	n.depthHist = m.Histogram("pubsub.deliver_depth", obs.DepthBuckets)
	rn.SetApp(n)
	return n
}

// SetHandlers installs the application upcalls.
func (n *Node) SetHandlers(h Handlers) { n.handlers = h }

// childIndex returns where the child with address a is, or would be
// inserted, in the sorted children, and whether it is there.
func childIndex(children []ring.Contact, a transport.Addr) (int, bool) {
	return slices.BinarySearchFunc(children, a, func(c ring.Contact, a transport.Addr) int {
		return cmp.Compare(c.Addr, a)
	})
}

// setChild records c as a child of the topic.
func (st *topicState) setChild(c ring.Contact) {
	i, found := childIndex(st.children, c.Addr)
	next := make([]ring.Contact, 0, len(st.children)+1)
	next = append(append(next, st.children[:i]...), c)
	if found {
		i++
	}
	st.children = append(next, st.children[i:]...)
}

// removeChild forgets the child with address a, if there is one.
func (st *topicState) removeChild(a transport.Addr) {
	if i, found := childIndex(st.children, a); found {
		st.children = slices.Concat(st.children[:i], st.children[i+1:])
	}
}

// state returns (creating if needed) the per-topic state.
func (n *Node) state(topic ids.ID) *topicState {
	if st := n.lastTopic; st != nil && st.topic == topic {
		return st
	}
	st, ok := n.topics[topic]
	if !ok {
		st = &topicState{topic: topic}
		if n.topics == nil {
			n.topics = make(map[ids.ID]*topicState)
		}
		n.topics[topic] = st
	}
	n.lastTopic = st
	return st
}

// Create claims the topic's rendezvous node as tree root (CreateTree API)
// with default tree parameters.
func (n *Node) Create(topic ids.ID) { n.CreateWithConfig(topic, TreeConfig{}) }

// CreateWithConfig claims the root and installs the owner's per-tree
// parameters (fanout cap, aggregation deadline), which propagate to every
// member as it joins.
func (n *Node) CreateWithConfig(topic ids.ID, cfg TreeConfig) {
	// The engine calls this from announce/retry handling, so the Route can
	// self-deliver CreateMsg synchronously — safe because Deliver's
	// CreateMsg arm only touches the topic's own state, which this caller
	// has finished mutating.
	//lint:ignore reentry rendezvous create: synchronous self-delivery lands in Deliver's CreateMsg arm, which reads no caller state mid-update
	n.ring.Route(topic, CreateMsg{Topic: topic, Creator: n.ring.Self(), Cfg: cfg})
}

// effCfg is the tree's effective configuration: owner overrides on top of
// this node's defaults.
func (n *Node) effCfg(st *topicState) TreeConfig { return st.ownerCfg.merged(n.cfg) }

// Subscribe joins this node to the topic's tree as a worker.
func (n *Node) Subscribe(topic ids.ID) {
	st := n.state(topic)
	st.subscribed = true
	if st.isRoot || !st.parent.IsZero() || st.joining {
		return // already attached (e.g. was a pure forwarder)
	}
	st.joining = true
	n.ring.Route(topic, JoinMsg{Topic: topic, Subscriber: n.ring.Self()})
}

// Unsubscribe detaches this node as worker; it remains a forwarder while
// it still has children, and cascades a leave upward otherwise.
func (n *Node) Unsubscribe(topic ids.ID) {
	st, ok := n.topics[topic]
	if !ok {
		return
	}
	st.subscribed = false
	n.maybeLeave(st)
}

func (n *Node) maybeLeave(st *topicState) {
	if st.subscribed || st.isRoot || len(st.children) > 0 {
		return
	}
	if !st.parent.IsZero() {
		n.env.Send(st.parent.Addr, LeaveMsg{Topic: st.topic, Child: n.ring.Self()})
	}
	n.stopTimers(st)
	delete(n.topics, st.topic)
	if n.lastTopic == st {
		n.lastTopic = nil
	}
}

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
	if r.flushed {
		// Late self-contribution after a timeout flush: r.combined was
		// already forwarded upstream by reference (the in-memory transport
		// does not copy messages, and the combiner merges in place), so it
		// must not be touched. Forward the late object as a supplementary
		// partial instead, mirroring straggler handling in handleUpstream.
		if obj != nil {
			n.forwardUp(st, round, obj, 1)
		}
		return
	}
	if obj != nil {
		r.combined = n.combine(topic, r.combined, obj)
		r.count++
	}
	n.maybeFlush(st, round, r)
}

// --- ring.App implementation ---

// Deliver handles ring-routed payloads that reached the rendezvous node.
func (n *Node) Deliver(d ring.Delivery) {
	switch m := d.Payload.(type) {
	case CreateMsg:
		st := n.state(m.Topic)
		st.isRoot = true
		st.adopted = false // owner claim: this root never hands itself back
		st.parent = ring.Contact{}
		st.joining = false
		n.learnTreeConfig(st, m.Cfg)
		// A re-created root (bumped-epoch claim after failover or restart)
		// starts a fresh multicast stream; any state this node held as an
		// earlier member of the tree belongs to the old generation.
		n.mcAdvance(st, m.Cfg.Epoch)
	case JoinMsg:
		st := n.state(m.Topic)
		if !st.isRoot {
			n.adoptRoot(st)
		}
		st.parent = ring.Contact{}
		st.joining = false
		if m.Subscriber.Addr != n.ring.Self().Addr {
			n.addChild(st, m.Subscriber)
		}
	case PublishMsg:
		st := n.state(m.Topic)
		if !st.isRoot {
			n.adoptRoot(st) // the rendezvous node is the master by definition
		}
		n.multicast(st, m.Object)
	}
}

// Forward intercepts JOIN messages on their way to the rendezvous node,
// splicing the subscriber into the tree at the first node that is already
// (or now becomes) part of it. This is what makes the forest scale: the
// union of join paths is the tree, and join cost is amortized over overlay
// links that already exist (Fig 7).
func (n *Node) Forward(d *ring.Delivery, next ring.Contact) bool {
	m, ok := d.Payload.(JoinMsg)
	if !ok {
		return true
	}
	if m.Subscriber.Addr == n.ring.Self().Addr {
		return true // we originated this join; let it route on
	}
	n.ctrJoinIntercepts.Inc()
	st := n.state(m.Topic)
	n.addChild(st, m.Subscriber)
	if st.isRoot || !st.parent.IsZero() || st.joining {
		return false // already on the tree: the join stops here
	}
	// We become a forwarder and continue the join on our own behalf.
	st.joining = true
	d.Payload = JoinMsg{Topic: m.Topic, Subscriber: n.ring.Self(), Forwarder: true}
	return true
}

// --- direct message handling ---

// Receive consumes a direct pub/sub message. It reports whether the
// message type belonged to this layer.
func (n *Node) Receive(from transport.Addr, msg any) bool {
	switch m := msg.(type) {
	case JoinMsg: // pushed down from a full parent
		st := n.state(m.Topic)
		n.addChild(st, m.Subscriber)
	case Welcome:
		n.handleWelcome(m)
	case *Multicast:
		n.handleMulticast(m)
	case Multicast:
		n.handleMulticast(&m)
	case *Upstream:
		n.handleUpstream(m)
	case Upstream:
		n.handleUpstream(&m)
	case KeepAlive:
		n.handleKeepAlive(m)
	case McNack:
		n.handleNack(m)
	case LeaveMsg:
		if st, ok := n.topics[m.Topic]; ok {
			st.removeChild(m.Child.Addr)
			n.maybeLeave(st)
		}
	default:
		return false
	}
	return true
}

// learnTreeConfig folds newly learned owner overrides into the topic
// state. Zero fields mean "sender doesn't know" and never erase knowledge;
// a change re-propagates to existing children (a forwarder may have
// adopted children before its own join completed and delivered the
// config) and re-enforces the fanout cap.
func (n *Node) learnTreeConfig(st *topicState, cfg TreeConfig) {
	changed := false
	if cfg.MaxFanout != 0 && cfg.MaxFanout != st.ownerCfg.MaxFanout {
		st.ownerCfg.MaxFanout = cfg.MaxFanout
		changed = true
	}
	if cfg.AggTimeout != 0 && cfg.AggTimeout != st.ownerCfg.AggTimeout {
		st.ownerCfg.AggTimeout = cfg.AggTimeout
		changed = true
	}
	// The epoch only ever moves forward (a lower value is a stale sender,
	// not new knowledge).
	if cfg.Epoch > st.ownerCfg.Epoch {
		st.ownerCfg.Epoch = cfg.Epoch
		changed = true
	}
	if !changed {
		return
	}
	n.enforceFanout(st)
	for _, c := range st.children {
		n.env.Send(c.Addr, Welcome{Topic: st.topic, Parent: n.ring.Self(), Cfg: st.ownerCfg, Epoch: st.mcEpoch, LastSeq: st.mcLast})
	}
}

// enforceFanout pushes children beyond the tree's cap down to siblings.
func (n *Node) enforceFanout(st *topicState) {
	max := st.ownerCfg.MaxFanout
	if max <= 0 {
		return
	}
	for len(st.children) > max {
		// Evict the child numerically farthest from us; re-home it under
		// the sibling closest to it.
		var victim ring.Contact
		self := n.ring.Self().ID
		for _, ch := range st.children {
			if victim.IsZero() || ids.Closer(self, victim.ID, ch.ID) {
				victim = ch
			}
		}
		st.removeChild(victim.Addr)
		var target ring.Contact
		for _, ch := range st.children {
			if target.IsZero() || ids.Closer(victim.ID, ch.ID, target.ID) {
				target = ch
			}
		}
		if target.IsZero() {
			// No sibling to push to; keep the child after all.
			st.setChild(victim)
			return
		}
		n.env.Send(target.Addr, JoinMsg{Topic: st.topic, Subscriber: victim})
	}
}

// addChild inserts c as a child, pushing the join down to an existing
// child when the fanout cap is reached.
func (n *Node) addChild(st *topicState, c ring.Contact) {
	if c.Addr == n.ring.Self().Addr {
		return
	}
	if _, dup := childIndex(st.children, c.Addr); dup {
		n.env.Send(c.Addr, Welcome{Topic: st.topic, Parent: n.ring.Self(), Cfg: st.ownerCfg, Epoch: st.mcEpoch, LastSeq: st.mcLast})
		return
	}
	if max := st.ownerCfg.MaxFanout; max > 0 && len(st.children) >= max {
		// Push down: redirect the join to the child whose ID is closest to
		// the subscriber (keeps locality and balances subtrees).
		var best ring.Contact
		for _, ch := range st.children {
			if best.IsZero() || ids.Closer(c.ID, ch.ID, best.ID) {
				best = ch
			}
		}
		n.env.Send(best.Addr, JoinMsg{Topic: st.topic, Subscriber: c})
		return
	}
	st.setChild(c)
	n.env.Send(c.Addr, Welcome{Topic: st.topic, Parent: n.ring.Self(), Cfg: st.ownerCfg, Epoch: st.mcEpoch, LastSeq: st.mcLast})
	n.ensureKeepAlive(st)
}

func (n *Node) handleWelcome(m Welcome) {
	st := n.state(m.Topic)
	if m.Epoch > st.mcEpoch {
		// The parent is on a newer root generation than anything this node
		// has seen: discard old-stream state and re-baseline against the
		// parent's view (history before adoption is not owed). This runs
		// before learnTreeConfig so the re-welcomes it sends to existing
		// children pair the new epoch with this node's (reset) stream
		// state, cascading the generation change down the subtree.
		n.mcAdvance(st, m.Epoch)
		st.mcBase = m.LastSeq + 1
	}
	n.learnTreeConfig(st, m.Cfg)
	if st.mcBase == 0 {
		// First adoption: owed everything the parent multicasts after now.
		st.mcBase = m.LastSeq + 1
	}
	if m.Parent.Addr == n.ring.Self().Addr {
		return
	}
	// Guard against trivial cycles: refuse a parent that is currently our
	// child and re-join instead.
	if _, isChild := childIndex(st.children, m.Parent.Addr); isChild {
		st.joining = true
		n.ring.Route(st.topic, JoinMsg{Topic: st.topic, Subscriber: n.ring.Self()})
		return
	}
	if !st.parent.IsZero() && st.parent.Addr != m.Parent.Addr {
		// Replacing parents (rejoin): tell the old one we left.
		n.env.Send(st.parent.Addr, LeaveMsg{Topic: st.topic, Child: n.ring.Self()})
	}
	st.parent = m.Parent
	st.isRoot = false
	st.joining = false
	st.lastSeen = n.env.Now()
	n.ensureParentCheck(st)
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
		if st.mcLast > 0 && !st.parent.IsZero() {
			var missing []uint64
			for s := st.mcLast + 1; s < m.Seq && len(missing) < mcCacheSize; s++ {
				if !st.mcDelivered(s) {
					missing = append(missing, s)
				}
			}
			if len(missing) > 0 {
				n.env.Send(st.parent.Addr, McNack{Topic: st.topic, Child: n.ring.Self(), Missing: missing})
			}
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

// handleNack retransmits cached multicasts a child reports missing.
func (n *Node) handleNack(m McNack) {
	st, ok := n.topics[m.Topic]
	if !ok {
		return
	}
	for _, seq := range m.Missing {
		if mc, ok := st.cached(seq); ok {
			n.env.Send(m.Child.Addr, Multicast{
				Topic: mc.Topic, Epoch: mc.Epoch, Seq: mc.Seq, Depth: mc.Depth + 1, Object: mc.Object,
			})
		}
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
	if timeout := n.effCfg(st).AggTimeout; timeout > 0 {
		r.cancel = n.env.After(timeout, func() {
			if i, ok := st.findRound(round); ok && !st.rounds[i].flushed {
				n.recordMisses(st, st.rounds[i])
				n.ctrTimeoutFlushes.Inc()
				n.flush(st, round, st.rounds[i])
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
	if r.flushed {
		// Late contribution after a timeout flush: r.combined was already
		// forwarded upstream by reference (the in-memory transport does not
		// copy messages, and the combiner merges in place), so merging here
		// would mutate the aggregate the parent holds and double-count the
		// straggler. Forward it untouched as a supplementary partial so the
		// root still counts it exactly once.
		n.forwardUp(st, m.Round, m.Object, m.Count)
		return
	}
	if m.Object != nil {
		r.combined = n.combine(m.Topic, r.combined, m.Object)
		r.count += m.Count
	}
	n.maybeFlush(st, m.Round, r)
}

func (n *Node) maybeFlush(st *topicState, round int, r *aggRound) {
	if r.flushed || !r.selfDone || r.waiting > 0 {
		return
	}
	n.flush(st, round, r)
}

func (n *Node) flush(st *topicState, round int, r *aggRound) {
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
	n.forwardUp(st, round, obj, r.count)
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

// --- failure detection & repair ---

func (n *Node) ensureKeepAlive(st *topicState) {
	if n.cfg.KeepAliveInterval <= 0 || st.kaStop != nil {
		return
	}
	st.kaStop = transport.Every(n.env, n.cfg.KeepAliveInterval, func() bool {
		for _, c := range st.children {
			n.env.Send(c.Addr, KeepAlive{Topic: st.topic, Parent: n.ring.Self(), Epoch: st.mcEpoch, LastSeq: st.mcLast})
		}
		return true
	})
}

func (n *Node) ensureParentCheck(st *topicState) {
	if n.cfg.KeepAliveInterval <= 0 || st.checkStop != nil {
		return
	}
	st.checkStop = transport.Every(n.env, n.cfg.KeepAliveInterval, func() bool {
		if !st.parent.IsZero() && n.env.Now()-st.lastSeen > n.cfg.KeepAliveTimeout {
			n.repairParent(st)
		}
		return true
	})
}

func (n *Node) handleKeepAlive(m KeepAlive) {
	st := n.state(m.Topic)
	if st.parent.Addr != m.Parent.Addr {
		return
	}
	st.lastSeen = n.env.Now()
	// Loss repair: the heartbeat names the parent's newest multicast;
	// re-request every sequence in the retransmittable window this node
	// never saw (earlier nacks may themselves have been lost). A freshly
	// joined member catches up with just the latest broadcast (the current
	// model) rather than history it never owed.
	if m.LastSeq == 0 {
		return
	}
	if m.Epoch != st.mcEpoch {
		if m.Epoch < st.mcEpoch {
			return // stale stream: its sequence numbers mean nothing now
		}
		// The parent is on a newer root generation this node has not seen a
		// broadcast from yet; sequence numbers are not comparable across
		// generations, so just request the parent's newest multicast. The
		// retransmission carries the new epoch and resets local state.
		n.env.Send(st.parent.Addr, McNack{Topic: st.topic, Child: n.ring.Self(), Missing: []uint64{m.LastSeq}})
		return
	}
	var missing []uint64
	if st.mcLast == 0 && st.mcBase > m.LastSeq {
		// Joined after every known broadcast: catch up with the newest one
		// only (the current model).
		missing = []uint64{m.LastSeq}
	} else {
		from := uint64(1)
		if m.LastSeq > mcCacheSize {
			from = m.LastSeq - mcCacheSize + 1
		}
		if from < st.mcBase {
			from = st.mcBase // history before this member joined is not owed
		}
		for s := from; s <= m.LastSeq; s++ {
			if !st.mcDelivered(s) {
				missing = append(missing, s)
			}
		}
	}
	if len(missing) > 0 {
		n.env.Send(st.parent.Addr, McNack{Topic: st.topic, Child: n.ring.Self(), Missing: missing})
	}
}

// repairParent declares the parent failed and re-routes a JOIN toward the
// topic; the overlay routes it to a new parent, creating an alternative
// route (paper §4.5).
func (n *Node) repairParent(st *topicState) {
	dead := st.parent
	st.parent = ring.Contact{}
	st.joining = true
	st.lastSeen = n.env.Now()
	n.ctrRepairs.Inc()
	n.ring.RemoveContact(dead.Addr)
	n.ring.Route(st.topic, JoinMsg{Topic: st.topic, Subscriber: n.ring.Self()})
}

// adoptRoot makes this node the topic's root implicitly: the ring routed a
// JOIN or PUBLISH here, so by rendezvous rule the tree hangs off us — but
// nobody created the tree here, so ownership is provisional. The adopted
// flag plus the ownership probe make it revocable: when the key's true
// owner is reachable again (a restarted master rejoining the overlay), the
// probe notices the key routes away and hands the whole subtree back.
// Without this, a master outage strands every worker that re-joined
// through the interim root — the interim node keeps multicasting nothing
// and aggregating updates nobody collects.
func (n *Node) adoptRoot(st *topicState) {
	st.isRoot = true
	st.adopted = true
	st.parent = ring.Contact{}
	st.joining = false
	n.ensureRootCheck(st)
}

// ensureRootCheck runs a periodic ownership probe while this node holds an
// adopted root: if the ring resolves the topic key to another node again,
// the adopted root demotes itself and re-joins — keeping its children, so
// the subtree moves under the rightful root in one splice. Disabled (like
// all failure detection) when keep-alives are off.
func (n *Node) ensureRootCheck(st *topicState) {
	if n.cfg.KeepAliveInterval <= 0 || st.rootStop != nil {
		return
	}
	st.rootStop = transport.Every(n.env, n.cfg.KeepAliveTimeout, func() bool {
		if !st.isRoot || !st.adopted {
			st.rootStop = nil
			return false
		}
		if !n.ring.NextHop(st.topic).IsZero() {
			// The key routes elsewhere: the true owner is back. Hand off.
			st.rootStop = nil
			n.handBack(st)
			return false
		}
		return true
	})
}

// handBack demotes this node from root and splices it (with its whole
// subtree) back under the topic's current rendezvous node.
func (n *Node) handBack(st *topicState) {
	st.isRoot = false
	st.adopted = false
	n.ctrRootHandoffs.Inc()
	if st.subscribed || len(st.children) > 0 {
		st.joining = true
		n.ring.Route(st.topic, JoinMsg{Topic: st.topic, Subscriber: n.ring.Self()})
		return
	}
	n.maybeLeave(st)
}

// Disown relinquishes tree rootship explicitly. The engine calls it when a
// master demotes itself (a higher-epoch master exists elsewhere, see the
// mastership rules' Offer): the FL mastership and the tree root must move
// together.
// It is an adopted root's hand-back with the children dropped rather than
// dragged along: a demoted master is typically one that died and revived,
// so its children map predates its death — every live child repaired to
// the new tree long ago, and splicing the phantom subtree into the live
// tree would make each aggregation round wait out a timeout for reports
// that never come. Any child that *is* still attached here notices the
// missing keep-alives and repairs within a timeout, the normal churn path.
func (n *Node) Disown(topic ids.ID) {
	if st, ok := n.topics[topic]; ok && st.isRoot {
		st.children, st.missCount = nil, nil
		n.handBack(st)
	}
}

// ResetRounds discards all aggregation-round state for topic, cancelling
// any pending round timers. A master promoted through failover calls this:
// from its life as an interior node the promoted root may hold aggRounds
// already marked flushed, and a re-announced round must start aggregation
// fresh instead of treating every contribution as a post-flush straggler.
func (n *Node) ResetRounds(topic ids.ID) {
	if st, ok := n.topics[topic]; ok {
		n.dropRounds(st)
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

func (n *Node) stopTimers(st *topicState) {
	if st.kaStop != nil {
		st.kaStop()
		st.kaStop = nil
	}
	if st.checkStop != nil {
		st.checkStop()
		st.checkStop = nil
	}
	if st.rootStop != nil {
		st.rootStop()
		st.rootStop = nil
	}
	n.dropRounds(st)
}

// --- introspection (experiments & tests) ---

// Info is a snapshot of this node's role in one tree.
type Info struct {
	Topic      ids.ID
	IsRoot     bool
	Subscribed bool
	Parent     ring.Contact
	Children   []ring.Contact
	Attached   bool
}

// TreeInfo reports this node's role in the topic's tree.
func (n *Node) TreeInfo(topic ids.ID) (Info, bool) {
	st, ok := n.topics[topic]
	if !ok {
		return Info{}, false
	}
	info := Info{
		Topic:      topic,
		IsRoot:     st.isRoot,
		Subscribed: st.subscribed,
		Parent:     st.parent,
		Attached:   st.isRoot || !st.parent.IsZero(),
	}
	info.Children = slices.Clone(st.children)
	return info, true
}

// RootCount reports how many trees this node is the root (master) of.
func (n *Node) RootCount() int {
	c := 0
	for _, st := range n.topics {
		if st.isRoot {
			c++
		}
	}
	return c
}
