// Package simnet is a deterministic discrete-event simulator for edge
// networks.
//
// The paper evaluates Totoro by emulating up to 100k edge nodes on 500 EC2
// machines (§7.1). This package plays the same role in-process: each edge
// node is a transport.Handler driven by a single event loop with a virtual
// clock, so experiments over 10^5 nodes run deterministically in one
// process. An isolated fleet's loop runs each latency-wide window on every
// core and merges it back into the same event order (window.go). The
// simulator models:
//
//   - one-way propagation latency, a constant per network,
//   - stochastic Bernoulli link loss (the unreliable-edge-network model of
//     §5.1, as LinkRule.Drop),
//   - node churn (nodes failing, leaving, and joining mid-run, §7.5), and
//   - per-node traffic accounting (bytes and messages in/out, Fig 7).
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"totoro/internal/obs"
	"totoro/internal/transport"
)

// Config parameterizes a Network.
type Config struct {
	// Seed drives all randomness in the network and in node Rand() sources.
	Seed int64
	// Latency is every link's one-way delay. The zero Latency means 1 ms.
	Latency Latency
	// Observer, when set, sees every delivered message (src, dst, wire
	// size). Experiments use it for pairwise traffic accounting.
	Observer func(from, to transport.Addr, size int)
	// DefaultBandwidth is each node's egress/ingress bandwidth in
	// bytes/second; 0 means unlimited (no serialization delay). Individual
	// nodes can be overridden with SetBandwidth. Bandwidth is what turns a
	// node that many peers talk to simultaneously into a measurable
	// bottleneck — the effect behind the centralized-baseline comparison.
	DefaultBandwidth int64
	// Sizer, when set, charges each message its exact wire cost instead of
	// the WireSize estimate. Pass codec.FrameSize to make simulated byte
	// counters equal live-deployment (tcpnet) byte counters for every
	// registered type — injected as a function because the codec package
	// sits above this one in the dependency order. A Sizer error falls
	// back to the estimate. Nil by default: exact accounting encodes every
	// message, and existing experiments calibrated their bandwidth models
	// against the estimates.
	Sizer func(from transport.Addr, msg any) (int, error)
	// OnViolation handles invariant violations (see AddInvariant). Nil
	// panics with the *InvariantViolation, which carries the seed and a
	// trace excerpt for deterministic replay.
	OnViolation func(*InvariantViolation)
	// Isolated declares that the handlers of different nodes share no
	// mutable state: each node's stack touches only its own state and its
	// own Env, and a message is not written after it is sent. Run may then
	// dispatch the events of one latency-wide window on several cores
	// (window.go), with the serial loop's results.
	Isolated bool
}

// Latency is a constant one-way link delay, as ConstLatency makes it.
type Latency struct {
	d   time.Duration
	set bool
}

// ConstLatency returns a fixed one-way delay.
func ConstLatency(d time.Duration) Latency { return Latency{d: d, set: true} }

// Per-node traffic counter names in each node's registry, shared with the
// TCP transport so live and simulated nodes expose the same surface.
const (
	CtrMsgsIn   = transport.CtrMsgsIn
	CtrMsgsOut  = transport.CtrMsgsOut
	CtrBytesIn  = transport.CtrBytesIn
	CtrBytesOut = transport.CtrBytesOut
)

// eventKind says what a queued event does when the loop reaches it.
type eventKind uint8

const (
	// evCancelled is a timer whose cancel handle ran before it fired; the
	// loop discards it without counting a step.
	evCancelled eventKind = iota
	// evTimer runs fn — for a node's Env.After timer only while that node is
	// still alive in the generation that armed it.
	evTimer
	// evArrive is a message reaching its destination's NIC, where the
	// ingress link model is charged.
	evArrive
	// evIngress is a message that has cleared the destination's ingress
	// queue and is handed to the handler.
	evIngress
)

// event is the one representation of queued work: a timer carries fn (and,
// for Env.After, the node and generation that armed it); a message carries
// (node = sender, to, msg, size) as plain fields, so a send costs no closure.
//
// Events are owned by the Network and recycled through its free lists. The
// loop releases an event before running it, so the slot may be reused —
// under a new seq — while its own callback is still on the stack. Anything
// that holds an *event past that point (a timer's cancel handle) must
// remember the seq it was issued and compare before writing.
type event struct {
	// seq identifies this use of the slot: the queue key's seq, or for an
	// event made in a parallel window the lane's provisional key (window.go).
	// A slot's seqs only grow; 0 while on a free list.
	seq  uint64
	kind eventKind
	// dup marks a message a LinkRule.Dup fault put in two events: neither
	// delivery is its only one, so neither recycles it.
	dup bool
	// hash is a message's destination's simNode.hash, made by the sender
	// so that a parallel window finds its lane without a look-up.
	hash uint32
	fn   func()
	node *simNode
	gen  uint64
	to   transport.Addr
	msg  any
	size int
}

// simNode is one simulated node and, at the same time, the transport.Env its
// protocol stack runs on.
type simNode struct {
	net     *Network
	addr    transport.Addr
	handler transport.Handler
	// rng is created by the first Rand() call: few stacks ever draw from it,
	// and a math/rand source is 5 KB and 15 µs of seeding per node.
	rng   *rand.Rand
	alive bool
	reg   *obs.Registry
	// build reconstructs the node's protocol stack (kept from AddNode so
	// Restart can reboot the node).
	build func(transport.Env) transport.Handler
	// gen counts reboots. Timers capture the generation they were armed in
	// and refuse to fire across a restart: the old incarnation's pending
	// callbacks must not drive the rebooted stack (or send as it).
	gen uint64
	// Cached traffic counter handles (the send hot path must not hit the
	// registry's name table per message).
	msgsIn, msgsOut, bytesIn, bytesOut *obs.Counter
	// bandwidth in bytes/sec; 0 = unlimited.
	bandwidth int64
	// egressFree/ingressFree are the times the node's NIC queues drain.
	egressFree  time.Duration
	ingressFree time.Duration
	// hash spreads the nodes over the lanes of a parallel window.
	hash uint32
}

// txTime returns how long size bytes occupy this node's link.
func (n *simNode) txTime(size int) time.Duration {
	if n.bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(size) / float64(n.bandwidth) * float64(time.Second))
}

// Network is the simulator. It is not safe for concurrent use: its events
// run in one (at, seq) order, on one goroutine or, for an isolated fleet, in
// parallel windows that reproduce that order (window.go).
type Network struct {
	cfg     Config
	now     time.Duration
	seq     uint64
	queue   radixQueue
	free    []*event // recycled events, last released on top
	nodes   map[transport.Addr]*simNode
	sorted  []transport.Addr // Addrs() cache; nil after AddNode
	rng     *rand.Rand
	latency time.Duration
	// reg holds network-level counters (net.delivered, net.dropped); the
	// per-node counters live in each node's own registry, each sized like
	// the one before it (lastReg).
	reg       *obs.Registry
	lastReg   *obs.Registry
	delivered *obs.Counter
	// dropped is the total of all drop causes; the per-cause counters say
	// why a message died, not just that it did.
	dropped          *obs.Counter
	droppedDead      *obs.Counter // destination missing or crashed
	droppedPartition *obs.Counter // blocked link (Partition/BlockOneWay)
	droppedFault     *obs.Counter // LinkRule.Drop
	dupInjected      *obs.Counter // LinkRule.Dup duplicates delivered
	reorderInjected  *obs.Counter // LinkRule.Reorder holdbacks applied

	// Fault-injection state (faults.go): ref-counted blocked directed
	// links and the installed per-link fault rules.
	blocked map[linkKey]int
	rules   []*LinkRule

	// Always-on safety checks (faults.go): run after every event that
	// advances the virtual clock and at explicit quiesce checks. The
	// first failure is recorded in violation.
	invariants []func() error
	lastCheck  time.Duration
	violation  *InvariantViolation

	// Parallel windows (window.go): one lane per loop worker, and whether a
	// window is running, which makes clocks and scheduling per lane.
	lanes []*lane
	par   bool
	crew  crew
	// windows counts the windows run in parallel; force runs every
	// eligible window in parallel however thin. Both are for tests.
	windows int
	force   bool
}

// New creates an empty simulated network.
func New(cfg Config) *Network {
	latency := time.Millisecond
	if cfg.Latency.set {
		latency = cfg.Latency.d
	}
	reg := obs.New(0)
	return &Network{
		cfg:              cfg,
		nodes:            make(map[transport.Addr]*simNode),
		rng:              rand.New(rand.NewSource(cfg.Seed)),
		latency:          latency,
		reg:              reg,
		delivered:        reg.Counter("net.delivered"),
		dropped:          reg.Counter("net.dropped"),
		droppedDead:      reg.Counter("net.dropped_dead"),
		droppedPartition: reg.Counter("net.dropped_partition"),
		droppedFault:     reg.Counter("net.dropped_fault"),
		dupInjected:      reg.Counter("net.dup_injected"),
		reorderInjected:  reg.Counter("net.reorder_injected"),
		lastCheck:        -1,
	}
}

// Delivered returns the total messages actually delivered.
func (n *Network) Delivered() int64 { return n.delivered.Value() }

// Dropped returns the total messages lost, to any cause. The per-cause
// split lives in the network registry: net.dropped_dead (dead destination),
// net.dropped_partition (blocked link), net.dropped_fault (LinkRule drops).
func (n *Network) Dropped() int64 { return n.dropped.Value() }

// Now returns the current virtual time. Inside a parallel window every node
// has its own clock, so a handler reads its Env's Now, and this panics.
func (n *Network) Now() time.Duration {
	if n.par {
		panic("simnet: Network.Now inside a parallel window; a handler reads its own Env.Now")
	}
	return n.now
}

// clock is the virtual time of nd's current event.
func (n *Network) clock(nd *simNode) time.Duration {
	if n.par {
		return n.lane(nd.hash).now
	}
	return n.now
}

func (nd *simNode) Self() transport.Addr   { return nd.addr }
func (nd *simNode) Now() time.Duration     { return nd.net.clock(nd) }
func (nd *simNode) Metrics() *obs.Registry { return nd.reg }

// Rand returns the node's private source, seeded from the network seed, the
// address and the reboot generation — so Restart (which drops the source)
// gives the rebooted stack a fresh-but-deterministic stream.
func (nd *simNode) Rand() *rand.Rand {
	if nd.rng == nil {
		seed := nd.net.cfg.Seed ^ int64(hashAddr(nd.addr)) ^ int64(nd.gen<<32)
		nd.rng = rand.New(rand.NewSource(seed))
	}
	return nd.rng
}

func (nd *simNode) Send(to transport.Addr, msg any) {
	nd.net.send(nd, to, msg)
}

func (nd *simNode) After(d time.Duration, fn func()) (cancel func()) {
	return nd.net.timer(max(d, 0), nd, fn).canceller()
}

// AddNode registers a node. build receives the node's Env and returns its
// Handler; it typically constructs the whole protocol stack for the node.
func (n *Network) AddNode(addr transport.Addr, build func(transport.Env) transport.Handler) transport.Env {
	if _, dup := n.nodes[addr]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", addr))
	}
	reg := obs.NewLike(0, n.lastReg)
	n.lastReg = reg
	node := &simNode{
		net:       n,
		addr:      addr,
		alive:     true,
		reg:       reg,
		build:     build,
		msgsIn:    reg.Counter(CtrMsgsIn),
		msgsOut:   reg.Counter(CtrMsgsOut),
		bytesIn:   reg.Counter(CtrBytesIn),
		bytesOut:  reg.Counter(CtrBytesOut),
		bandwidth: n.cfg.DefaultBandwidth,
		hash:      addrHash(addr),
	}
	n.nodes[addr] = node
	n.sorted = nil
	node.handler = build(node)
	return node
}

func hashAddr(a transport.Addr) uint64 {
	// FNV-1a over the address string.
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	return h
}

func (n *Network) send(from *simNode, to transport.Addr, msg any) {
	if !from.alive {
		return
	}
	size := n.sizeOf(from.addr, msg)
	from.msgsOut.Inc()
	from.bytesOut.Add(int64(size))
	if n.blocked[linkKey{from.addr, to}] > 0 {
		n.dropped.Inc()
		n.droppedPartition.Inc()
		return
	}
	// Per-link fault rules: drop kills the message outright; duplication,
	// reordering, and extra delay shape how (and how often) it arrives.
	var extra time.Duration
	dup := false
	for _, r := range n.rules {
		if !r.matches(from.addr, to) {
			continue
		}
		if r.Drop > 0 && n.rng.Float64() < r.Drop {
			n.dropped.Inc()
			n.droppedFault.Inc()
			return
		}
		if r.Dup > 0 && n.rng.Float64() < r.Dup {
			dup = true
		}
		extra += r.Delay
		if r.Reorder > 0 && n.rng.Float64() < r.Reorder {
			w := r.ReorderWindow
			if w <= 0 {
				w = defaultReorderWindow
			}
			extra += time.Duration(n.rng.Int63n(int64(w)))
			n.reorderInjected.Inc()
		}
	}
	// Egress serialization: the sender's NIC transmits one frame at a time.
	now := n.clock(from)
	txStart := now
	if from.egressFree > txStart {
		txStart = from.egressFree
	}
	txEnd := txStart + from.txTime(size)
	from.egressFree = txEnd
	arrival := txEnd + n.latency + extra
	hash := addrHash(to)
	n.message(evArrive, arrival-now, from, from, to, hash, msg, size, dup)
	if dup {
		// The duplicate is a network-level copy: it skips the sender's NIC
		// (sent once) but arrives independently after its own jitter.
		n.dupInjected.Inc()
		w := defaultReorderWindow
		arrival2 := arrival + time.Duration(n.rng.Int63n(int64(w)))
		n.message(evArrive, arrival2-now, from, from, to, hash, msg, size, dup)
	}
}

// arrive handles a message reaching its destination's NIC. Ingress
// serialization is charged here, when the message arrives, not when it was
// sent: the receiver drains its link in true arrival order, so messages
// that the fault layer delayed or reordered don't head-of-line-block
// messages that physically got there first.
func (n *Network) arrive(e *event) {
	dst, ok := n.nodes[e.to]
	if !ok || !dst.alive {
		n.dropped.Inc()
		n.droppedDead.Inc()
		return
	}
	now := n.clock(dst)
	deliverAt := now
	if dst.ingressFree > deliverAt {
		deliverAt = dst.ingressFree
	}
	deliverAt += dst.txTime(e.size)
	dst.ingressFree = deliverAt
	if deliverAt <= now {
		n.handoff(dst, e)
		return
	}
	n.message(evIngress, deliverAt-now, dst, e.node, e.to, e.hash, e.msg, e.size, e.dup)
}

// ingress handles a message that has cleared the destination's ingress
// queue; the destination may have died while it waited there.
func (n *Network) ingress(e *event) {
	dst, ok := n.nodes[e.to]
	if !ok || !dst.alive {
		n.dropped.Inc()
		n.droppedDead.Inc()
		return
	}
	n.handoff(dst, e)
}

// handoff counts and delivers one message that cleared the receiver's link.
// The delivery is the message's only one unless a dup fault copied it, so a
// transport.Recycler goes back to its sender's free list once Receive
// returns — in a parallel window at the barrier, where the sender's list is
// no other lane's business.
func (n *Network) handoff(dst *simNode, e *event) {
	dst.msgsIn.Inc()
	dst.bytesIn.Add(int64(e.size))
	r, recycle := e.msg.(transport.Recycler)
	recycle = recycle && !e.dup
	if n.par {
		l := n.lane(dst.hash)
		l.delivered++
		dst.handler.Receive(e.node.addr, e.msg)
		if recycle {
			l.log[len(l.log)-1].recycle = r
		}
		return
	}
	n.delivered.Inc()
	if n.cfg.Observer != nil {
		n.cfg.Observer(e.node.addr, dst.addr, e.size)
	}
	dst.handler.Receive(e.node.addr, e.msg)
	if recycle {
		r.Recycle()
	}
}

// sizeOf charges a message's simulated wire cost: the exact frame size
// under Config.Sizer, the WireSize estimate otherwise.
func (n *Network) sizeOf(from transport.Addr, msg any) int {
	if n.cfg.Sizer != nil {
		if size, err := n.cfg.Sizer(from, msg); err == nil {
			return size
		}
	}
	return transport.SizeOf(msg)
}

// SetBandwidth overrides one node's egress/ingress bandwidth (bytes/sec;
// 0 = unlimited).
func (n *Network) SetBandwidth(addr transport.Addr, bytesPerSec int64) {
	if node, ok := n.nodes[addr]; ok {
		node.bandwidth = bytesPerSec
	}
}

// schedule queues an event d after by's clock (the network's, for a global
// timer) and returns it for the caller to fill in: only the (at, seq) key
// lives in the queue. Every call takes the next seq, so events due at the
// same instant run in the order they were scheduled. Inside a parallel
// window the event is by's lane's to number.
//
//vet:noalloc amortized
func (n *Network) schedule(by *simNode, d time.Duration) *event {
	if n.par {
		return n.lane(by.hash).schedule(d)
	}
	var ev *event
	if k := len(n.free); k > 0 {
		ev = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		ev = new(event)
	}
	n.seq++
	ev.seq = n.seq
	n.queue.push(queued{at: n.now + d, seq: n.seq, ev: ev})
	return ev
}

// release returns a popped event to the free list, dropping what it
// references.
//
//vet:noalloc amortized
func (n *Network) release(ev *event) {
	*ev = event{}
	n.free = append(n.free, ev)
}

// timer queues fn to run after d. With a node, the timer is that node's: it
// fires only if the node is still alive in the generation that armed it.
func (n *Network) timer(d time.Duration, node *simNode, fn func()) *event {
	ev := n.schedule(node, d)
	ev.kind = evTimer
	ev.fn = fn
	if node != nil {
		ev.node, ev.gen = node, node.gen
	}
	return ev
}

// message queues one stage (evArrive or evIngress) of a message's delivery,
// d after by's clock: the sender's for an arrival, the receiver's for an
// ingress.
//
//vet:noalloc
func (n *Network) message(kind eventKind, d time.Duration, by, from *simNode, to transport.Addr, hash uint32, msg any, size int, dup bool) {
	ev := n.schedule(by, d)
	ev.kind, ev.dup, ev.hash = kind, dup, hash
	ev.node, ev.to, ev.msg, ev.size = from, to, msg, size
}

// canceller returns the timer's cancel handle. The handle outlives the
// event's turn in the queue, so it checks that the slot still holds the
// timer it was issued for before touching it.
func (ev *event) canceller() func() {
	seq := ev.seq
	return func() {
		if ev.seq == seq {
			ev.kind = evCancelled
			ev.fn = nil
		}
	}
}

// Step executes the next pending event. It reports false when the queue is
// empty. With invariants registered (AddInvariant), the checks run after
// every event that lands on a new virtual timestamp.
func (n *Network) Step() bool {
	for n.queue.len() > 0 {
		q := n.queue.pop()
		e := *q.ev
		n.release(q.ev)
		if e.kind == evCancelled {
			continue
		}
		n.now = q.at
		n.fire(&e)
		if len(n.invariants) > 0 && n.now != n.lastCheck {
			n.lastCheck = n.now
			n.runInvariants()
		}
		return true
	}
	return false
}

// fire runs one popped event.
func (n *Network) fire(e *event) {
	switch e.kind {
	case evTimer:
		if e.node == nil || (e.node.alive && e.node.gen == e.gen) {
			e.fn()
		}
	case evArrive:
		n.arrive(e)
	case evIngress:
		n.ingress(e)
	}
}

// Run drains all events until the queue is empty or the virtual clock would
// pass deadline. It returns the number of events executed. An isolated
// fleet's thick windows run in parallel (window.go); the order, and so every
// result, is Step's.
func (n *Network) Run(deadline time.Duration) int {
	parallel := n.openLanes()
	if parallel {
		defer n.closeLanes()
	}
	steps := 0
	serialUntil := time.Duration(math.MinInt64)
	for n.skipCancelled() {
		at := n.queue.peek().at
		if at > deadline {
			n.now = deadline
			return steps
		}
		if parallel && at >= serialUntil {
			end := at + n.latency
			if deadline < end-1 {
				end = deadline + 1
			}
			if k, ok := n.window(end); ok {
				steps += k
				continue
			}
			serialUntil = end
		}
		n.Step()
		steps++
	}
	return steps
}

// RunUntilIdle drains every pending event (including future timers). Use
// with care when protocols schedule periodic timers: prefer Run(deadline).
func (n *Network) RunUntilIdle() int { return n.Run(math.MaxInt64) }

// skipCancelled discards cancelled timers from the head of the queue and
// reports whether a live event remains there.
func (n *Network) skipCancelled() bool {
	for n.queue.len() > 0 {
		if n.queue.peek().ev.kind != evCancelled {
			return true
		}
		n.release(n.queue.pop().ev)
	}
	return false
}

// Fail marks a node as crashed: it stops receiving messages and its pending
// timers are suppressed. Counterpart of the 5%-simultaneous-failure churn
// experiment (Fig 12).
func (n *Network) Fail(addr transport.Addr) {
	if node, ok := n.nodes[addr]; ok {
		node.alive = false
	}
}

// Revive brings a failed node back (used to model re-joining churn).
func (n *Network) Revive(addr transport.Addr) {
	if node, ok := n.nodes[addr]; ok {
		node.alive = true
	}
}

// Restart reboots a node from scratch: unlike Revive (which brings the
// same process back with its memory intact), Restart models a crash and a
// fresh process start — the protocol stack is rebuilt by the node's
// original build function, every timer armed by the previous incarnation
// is dead, and the node's rng is reseeded per generation so the rebooted
// stack draws a fresh-but-deterministic stream. In-memory state survives
// only through whatever durable store the build function wires in, which
// is exactly what crash-recovery experiments exercise. Returns the new
// handler (nil if the address is unknown).
func (n *Network) Restart(addr transport.Addr) transport.Handler {
	node, ok := n.nodes[addr]
	if !ok {
		return nil
	}
	node.gen++
	node.alive = true
	node.rng = nil // reseeded for the new generation on the next Rand()
	// A fresh process has empty NIC queues.
	node.egressFree = 0
	node.ingressFree = 0
	node.handler = node.build(node)
	return node.handler
}

// Alive reports whether the node exists and is up.
func (n *Network) Alive(addr transport.Addr) bool {
	node, ok := n.nodes[addr]
	return ok && node.alive
}

// Up is Alive for a caller that holds the node's Env: no address look-up.
func (n *Network) Up(env transport.Env) bool {
	nd, ok := env.(*simNode)
	return ok && nd.net == n && nd.alive
}

// MetricsOf returns addr's telemetry registry (nil if unknown) — the same
// registry the node's Env.Metrics() hands to its protocol stack.
func (n *Network) MetricsOf(addr transport.Addr) *obs.Registry {
	if node, ok := n.nodes[addr]; ok {
		return node.reg
	}
	return nil
}

// Metrics returns the network-level registry (net.delivered, net.dropped).
func (n *Network) Metrics() *obs.Registry { return n.reg }

// MergedSnapshot sums the network-level registry and every node's
// registry into one fleet-wide snapshot, deterministically: registries are
// folded one at a time in sorted address order (float histogram sums depend
// on it), with no per-node snapshot in between.
func (n *Network) MergedSnapshot() obs.Snapshot {
	out := obs.MergeSnapshots()
	n.reg.MergeInto(out)
	for _, addr := range n.Addrs() {
		n.nodes[addr].reg.MergeInto(out)
	}
	return out
}

// MergedTrace interleaves every node's trace ring into one global
// virtual-time timeline.
func (n *Network) MergedTrace() []obs.Event {
	streams := make([][]obs.Event, 0, len(n.nodes))
	for _, addr := range n.Addrs() {
		streams = append(streams, n.nodes[addr].reg.TraceEvents())
	}
	return obs.MergeTraces(streams...)
}

// ResetTraffic zeroes every node's traffic counters plus the network's
// delivered/dropped tallies (used between experiment phases).
func (n *Network) ResetTraffic() {
	for _, node := range n.nodes {
		node.reg.ResetCounters(CtrMsgsIn, CtrMsgsOut, CtrBytesIn, CtrBytesOut)
	}
	n.reg.ResetCounters("net.delivered", "net.dropped",
		"net.dropped_dead", "net.dropped_partition",
		"net.dropped_fault", "net.dup_injected", "net.reorder_injected")
}

// Addrs returns all registered node addresses in insertion-independent
// deterministic (sorted) order. The slice is shared between calls until the
// next AddNode; callers must not modify it.
func (n *Network) Addrs() []transport.Addr {
	if n.sorted == nil {
		n.sorted = make([]transport.Addr, 0, len(n.nodes))
		for a := range n.nodes {
			n.sorted = append(n.sorted, a)
		}
		sort.Slice(n.sorted, func(i, j int) bool { return n.sorted[i] < n.sorted[j] })
	}
	return n.sorted
}
