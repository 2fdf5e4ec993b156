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
// member as it joins. A claim starts the tree's rounds afresh: a round this
// node flushed as an interior node, or in an instance a retry aborts, must
// aggregate again when the new root re-announces it, not route every
// contribution up as a straggler.
func (n *Node) CreateWithConfig(topic ids.ID, cfg TreeConfig) {
	if st, ok := n.topics[topic]; ok {
		n.dropRounds(st)
	}
	// The engine calls this from announce/retry handling, so the Route can
	// self-deliver CreateMsg synchronously — safe because Deliver's
	// CreateMsg arm only touches the topic's own state, which this caller
	// has finished mutating.
	//lint:ignore reentry rendezvous create: synchronous self-delivery lands in Deliver's CreateMsg arm, which reads no caller state mid-update
	n.ring.Route(topic, CreateMsg{Topic: topic, Creator: n.ring.Self(), Cfg: cfg})
}

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
		target := st.closestChild(victim.ID)
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
		n.env.Send(st.closestChild(c.ID).Addr, JoinMsg{Topic: st.topic, Subscriber: c})
		return
	}
	st.setChild(c)
	n.env.Send(c.Addr, Welcome{Topic: st.topic, Parent: n.ring.Self(), Cfg: st.ownerCfg, Epoch: st.mcEpoch, LastSeq: st.mcLast})
	n.ensureKeepAlive(st)
}

// closestChild returns the child whose ID is numerically closest to id, or
// the zero contact if there is no child.
func (st *topicState) closestChild(id ids.ID) ring.Contact {
	var best ring.Contact
	for _, ch := range st.children {
		if best.IsZero() || ids.Closer(id, ch.ID, best.ID) {
			best = ch
		}
	}
	return best
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

func (n *Node) stopTimers(st *topicState) {
	for _, stop := range [...]*func(){&st.kaStop, &st.checkStop, &st.rootStop} {
		if *stop != nil {
			(*stop)()
			*stop = nil
		}
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
