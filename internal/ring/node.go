package ring

import (
	"slices"
	"sort"
	"time"

	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/transport"
)

// Config parameterizes an overlay node.
type Config struct {
	// B is the number of bits per routing digit; the routing table has
	// 2^B−1 usable entries per row and pub/sub trees built on the overlay
	// have fanout 2^B. The paper evaluates B ∈ {3,4,5} (fanouts 8/16/32).
	B int
	// ReliableHops enables per-hop acknowledgements: a hop that is not
	// acked within HopAckTimeout removes the suspect contact and re-routes.
	// This is how routes adapt to failed nodes (§4.5).
	ReliableHops bool
	// HopAckTimeout is the per-hop ack deadline when ReliableHops is set.
	HopAckTimeout time.Duration
}

const (
	// leafHalf is the size of each half of the leaf set: the paper
	// configures 24 leaves, 12 on each side of the ring (§7.1).
	leafHalf = 12
	// deadQuarantine is how long a removed (suspected-failed) contact is
	// refused re-insertion, so that repair replies from peers that have not
	// yet noticed the failure cannot resurrect it.
	deadQuarantine = 2 * time.Second
	// recontactTries is how many maintenance cycles a removed contact keeps
	// being probed after it is scrubbed. A healed partition looks exactly
	// like a mass failure — both sides have scrubbed each other from all
	// routing state, so no traffic crosses the former boundary and the
	// overlay would stay split forever without an active re-contact path.
	// A contact that stays silent for this many probes is dropped for good
	// (it can still return via an explicit re-join).
	recontactTries = 20
	// cellChunk is how many run-time cells a node allocates at a time.
	cellChunk = 16
)

func (c Config) withDefaults() Config {
	if c.B == 0 {
		c.B = 4
	}
	if c.HopAckTimeout == 0 {
		c.HopAckTimeout = 200 * time.Millisecond
	}
	return c
}

type pendingHop struct {
	env    Envelope
	next   Contact
	cancel func()
}

// removedContact remembers a scrubbed contact so maintenance can keep
// probing it for a bounded number of cycles — the only way two sides of a
// healed partition find each other again.
type removedContact struct {
	c     *Contact
	tries int
}

// boxedProbes is a node's Ping and Pong as interface values. Send takes an
// interface, and self never changes, so every probe and every reply can
// send the same two values instead of boxing a new one each time.
type boxedProbes struct{ ping, pong any }

// Node is one overlay participant.
type Node struct {
	env  transport.Env
	cfg  Config
	self Contact
	app  App

	// Routing state points at cells: contacts that never change once a
	// row or a half points at them, so one cell serves every slot that holds
	// its contact. BuildStatic's cells are one fleet-wide array; a contact
	// learned at run time gets the next cell of chunk, which the node owns,
	// and used counts the chunk's cells taken. An empty slot is nil.
	//
	// rt is the routing table, [row][digit]. Only the rows a node has an
	// entry in exist: rt stops at the deepest such row, and a row before it
	// that never got an entry is nil. At 50k nodes that is 4–5 rows of the
	// 32 the ID space has.
	rt      [][]*Contact
	leafCW  []*Contact // successors, sorted by clockwise distance
	leafCCW []*Contact // predecessors, sorted by counter-clockwise distance
	chunk   *[cellChunk]Contact

	// The maps below are created by their first write; most nodes of a
	// healthy fleet never need any of them.
	seq       uint64
	pending   map[uint64]*pendingHop
	joined    bool
	used      uint8
	deadUntil map[transport.Addr]time.Duration
	// Maintenance probe bookkeeping (StartMaintenance).
	probeSent map[transport.Addr]time.Duration
	lastPong  map[transport.Addr]time.Duration
	// Removed contacts still being re-probed (partition-heal re-merge).
	removed map[transport.Addr]removedContact
	// boxed holds the node's Ping and Pong once it has sent either; most
	// nodes of a large fleet never run maintenance and never need them.
	boxed *boxedProbes

	// Cached handles into env.Metrics() — see the "ring.*" names below.
	ctrDelivered  *obs.Counter
	ctrForwarded  *obs.Counter
	ctrHopRetries *obs.Counter
	ctrJoins      *obs.Counter
	ctrRepairs    *obs.Counter
	ctrRecontacts *obs.Counter
	hopHist       *obs.Histogram
}

// New creates a node. Call SetApp before routing if the application wants
// upcalls, then Join (or include the node in a static build).
func New(env transport.Env, self Contact, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{env: env, cfg: cfg, self: self, app: NopApp{}}
	m := env.Metrics()
	n.ctrDelivered = m.Counter("ring.delivered")    // routes that terminated here
	n.ctrForwarded = m.Counter("ring.forwarded")    // routes passed on
	n.ctrHopRetries = m.Counter("ring.hop_retries") // reliable-hop timeouts that re-routed
	n.ctrJoins = m.Counter("ring.joins")            // joins this node completed
	n.ctrRepairs = m.Counter("ring.leafset_repairs")
	n.ctrRecontacts = m.Counter("ring.recontact_probes") // probes to scrubbed contacts (partition-heal re-merge)
	n.hopHist = m.Histogram("ring.route_hops", obs.HopBuckets)
	return n
}

// SetApp installs the application upcall handler.
func (n *Node) SetApp(app App) { n.app = app }

// Self returns this node's contact.
func (n *Node) Self() Contact { return n.self }

// Joined reports whether the node completed a join (static builds mark
// nodes joined directly).
func (n *Node) Joined() bool { return n.joined }

// Route sends payload toward the live node whose ID is numerically closest
// to key, invoking App upcalls along the way.
func (n *Node) Route(key ids.ID, payload any) {
	n.handleEnvelope(Envelope{Key: key, Source: n.self, Hops: 0, Payload: payload})
}

// Receive implements transport.Handler for ring messages.
func (n *Node) Receive(from transport.Addr, msg any) {
	// A message received directly from a quarantined address is first-hand
	// proof the node is back (e.g. crash-restarted and rejoining); the
	// quarantine only guards against stale third-party gossip. The address
	// stops being re-probed once the message is handled (nothing a message
	// does reads the re-probe list), so considerContact can still hand it
	// back its old cell.
	delete(n.deadUntil, from)
	switch m := msg.(type) {
	case Envelope:
		if n.cfg.ReliableHops && from != n.self.Addr {
			n.env.Send(from, HopAck{Seq: m.Seq})
		}
		n.considerContact(m.Source)
		n.handleEnvelope(m)
	case HopAck:
		if p, ok := n.pending[m.Seq]; ok {
			p.cancel()
			delete(n.pending, m.Seq)
		}
	case JoinRequest:
		n.handleJoinRequest(m)
	case JoinReply:
		n.handleJoinReply(m)
	case NodeJoined:
		n.considerContact(m.Node)
	case LeafsetRequest:
		n.env.Send(from, LeafsetReply{From: n.self, Leafset: n.Leafset()})
	case LeafsetReply:
		n.considerContact(m.From)
		for _, c := range m.Leafset {
			n.considerContact(c)
		}
	case Ping:
		n.considerContact(m.From)
		n.env.Send(from, n.probes().pong)
	case Pong:
		if n.lastPong == nil {
			n.lastPong = make(map[transport.Addr]time.Duration)
		}
		n.lastPong[m.From.Addr] = n.env.Now()
		n.considerContact(m.From)
	}
	delete(n.removed, from)
}

// handleEnvelope routes e one step from this node.
func (n *Node) handleEnvelope(e Envelope) {
	next := n.NextHop(e.Key)
	if next.IsZero() {
		n.ctrDelivered.Inc()
		n.hopHist.Observe(float64(e.Hops))
		n.env.Metrics().TraceID(obs.Event{
			At: n.env.Now(), Node: string(n.self.Addr),
			Kind: obs.KindRingDeliver, From: string(e.Source.Addr), Hop: e.Hops,
		}, e.Key.Hi, e.Key.Lo)
		n.app.Deliver(Delivery{Key: e.Key, Source: e.Source, Hops: e.Hops, Payload: e.Payload})
		return
	}
	d := Delivery{Key: e.Key, Source: e.Source, Hops: e.Hops, Payload: e.Payload}
	if !n.app.Forward(&d, next) {
		return // consumed by the application (e.g. pub/sub JOIN splice)
	}
	e.Payload = d.Payload
	n.ctrForwarded.Inc()
	n.env.Metrics().TraceID(obs.Event{
		At: n.env.Now(), Node: string(n.self.Addr),
		Kind: obs.KindRingHop, To: string(next.Addr), Hop: e.Hops,
	}, e.Key.Hi, e.Key.Lo)
	n.forward(e, next)
}

func (n *Node) forward(e Envelope, next Contact) {
	e.Hops++
	if n.cfg.ReliableHops {
		n.seq++
		e.Seq = n.seq
		p := &pendingHop{env: e, next: next}
		p.cancel = n.env.After(n.cfg.HopAckTimeout, func() {
			if _, ok := n.pending[e.Seq]; !ok {
				return
			}
			delete(n.pending, e.Seq)
			n.ctrHopRetries.Inc()
			n.RemoveContact(next.Addr)
			retry := p.env
			retry.Hops-- // hop did not happen
			n.handleEnvelope(retry)
		})
		if n.pending == nil {
			n.pending = make(map[uint64]*pendingHop)
		}
		n.pending[e.Seq] = p
	}
	n.env.Send(next.Addr, e)
}

// NextHop computes the greedy next hop for key, or the zero Contact when
// this node is the key's owner.
func (n *Node) NextHop(key ids.ID) Contact {
	return n.nextHop(key, transport.None)
}

// nextHop is NextHop with an optional excluded address. The join protocol
// excludes the joiner itself: every hop has already learned the joiner's
// contact, and routing "toward the joiner" would otherwise end the route at
// the joiner instead of at the closest existing member.
func (n *Node) nextHop(key ids.ID, exclude transport.Addr) Contact {
	if key == n.self.ID {
		return Contact{}
	}
	// Leaf set range check: if the key falls between the extreme leaves,
	// the numerically closest of {leafset ∪ self} owns it.
	if n.inLeafRange(key) {
		best := &n.self
		for _, half := range [2][]*Contact{n.leafCW, n.leafCCW} {
			for _, c := range half {
				if c.Addr != exclude && ids.Closer(key, c.ID, best.ID) {
					best = c
				}
			}
		}
		if best.Addr == n.self.Addr {
			return Contact{}
		}
		return *best
	}
	row := ids.CommonPrefix(n.self.ID, key, n.cfg.B)
	if c := n.rtEntry(row, key.Digit(row, n.cfg.B)); !c.IsZero() && c.Addr != exclude {
		return c
	}
	// Rare case: no entry. Fall back to any known contact that is both at
	// least as prefix-close and numerically closer to the key than we are.
	best := n.self
	for _, c := range n.knownContacts() {
		if c.Addr == exclude {
			continue
		}
		if ids.CommonPrefix(c.ID, key, n.cfg.B) >= row && ids.Closer(key, c.ID, best.ID) {
			best = c
		}
	}
	if best.Addr == n.self.Addr {
		return Contact{}
	}
	return best
}

// inLeafRange reports whether key falls inside the span covered by the leaf
// set. With fewer than leafHalf leaves per side the node knows the
// whole (small) ring and the range is considered to cover everything.
func (n *Node) inLeafRange(key ids.ID) bool {
	if len(n.leafCW) == 0 || len(n.leafCCW) == 0 {
		return true
	}
	if len(n.leafCW) < leafHalf || len(n.leafCCW) < leafHalf {
		return true
	}
	lo := n.leafCCW[len(n.leafCCW)-1].ID // farthest predecessor
	hi := n.leafCW[len(n.leafCW)-1].ID   // farthest successor
	return ids.Between(key, lo, hi) || key == lo
}

// Leafset returns the union of both leaf-set halves (no duplicates).
func (n *Node) Leafset() []Contact {
	out := make([]Contact, 0, len(n.leafCW)+len(n.leafCCW))
	for _, c := range n.leafCW {
		out = append(out, *c)
	}
	for _, c := range n.leafCCW {
		if !inHalf(n.leafCW, c.Addr) {
			out = append(out, *c)
		}
	}
	return out
}

// inHalf reports whether a leaf half holds addr.
func inHalf(half []*Contact, addr transport.Addr) bool {
	return slices.ContainsFunc(half, func(e *Contact) bool { return e.Addr == addr })
}

// ClosestLeaves returns up to k leaf-set contacts ordered by numeric
// closeness to key, ties broken by address so the order is deterministic.
// If this node owns key and then fails, the ring re-routes the key to one
// of these contacts — which is what makes them the natural replica set for
// per-key state (the failover layer uses exactly that).
func (n *Node) ClosestLeaves(key ids.ID, k int) []Contact {
	ls := n.Leafset()
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].ID == ls[j].ID {
			return ls[i].Addr < ls[j].Addr
		}
		return ids.Closer(key, ls[i].ID, ls[j].ID)
	})
	if k >= 0 && k < len(ls) {
		ls = ls[:k]
	}
	return ls
}

// knownContacts returns every contact in the node's state.
func (n *Node) knownContacts() []Contact {
	out := n.Leafset()
	for _, row := range n.rt {
		for _, c := range row {
			if c != nil {
				out = append(out, *c)
			}
		}
	}
	return out
}

// considerContact folds c into the leaf set and routing table wherever it
// improves them.
func (n *Node) considerContact(c Contact) {
	if c.IsZero() || c.Addr == n.self.Addr || c.ID == n.self.ID {
		return
	}
	if until, ok := n.deadUntil[c.Addr]; ok {
		if n.env.Now() < until {
			return // quarantined: recently declared dead
		}
		delete(n.deadUntil, c.Addr)
	}
	// A scrubbed contact that comes back unchanged takes its old cell.
	var cell *Contact
	if rc, ok := n.removed[c.Addr]; ok {
		if *rc.c == c {
			cell = rc.c
		}
		delete(n.removed, c.Addr)
	}
	n.leafCW = n.insertSorted(n.leafCW, c, &cell, true, leafHalf)
	n.leafCCW = n.insertSorted(n.leafCCW, c, &cell, false, leafHalf)
	n.insertRT(c, &cell)
}

// cell returns *cell, first copying c into the next cell of the node's
// chunk: a contact the node keeps in several places takes one cell.
func (n *Node) cell(cell **Contact, c Contact) *Contact {
	if *cell == nil {
		if n.chunk == nil || n.used == cellChunk {
			n.chunk, n.used = new([cellChunk]Contact), 0
		}
		*cell = &n.chunk[n.used]
		**cell = c
		n.used++
	}
	return *cell
}

// insertSorted inserts c into a distance-sorted leaf half (cw or ccw),
// deduplicating by address and keeping the max closest entries. The half is
// allocated once, at its full size.
func (n *Node) insertSorted(list []*Contact, c Contact, cell **Contact, cw bool, max int) []*Contact {
	self := n.self.ID
	dist := func(x *Contact) ids.ID {
		if cw {
			return ids.CWDist(self, x.ID)
		}
		return ids.CWDist(x.ID, self)
	}
	// A full half is unchanged by a contact no closer than its last entry,
	// whether that contact is already in it or farther than all of it.
	dc := dist(&c)
	if k := len(list); k >= max && (k == 0 || !dc.Less(dist(list[k-1]))) {
		return list
	}
	for _, e := range list {
		if e.Addr == c.Addr {
			return list
		}
	}
	pos := len(list)
	for i, e := range list {
		if dc.Less(dist(e)) {
			pos = i
			break
		}
	}
	if pos >= max {
		return list // farther than every entry of a full half
	}
	if list == nil {
		list = make([]*Contact, 0, max)
	}
	if len(list) < max {
		list = append(list, nil)
	}
	copy(list[pos+1:], list[pos:])
	list[pos] = n.cell(cell, c)
	return list
}

// rtEntry returns the routing-table entry at (row, col); a row the node
// never allocated is empty.
func (n *Node) rtEntry(row, col int) Contact {
	if row >= len(n.rt) || n.rt[row] == nil || n.rt[row][col] == nil {
		return Contact{}
	}
	return *n.rt[row][col]
}

// growRT extends the table to depth rows; the new ones are nil.
func (n *Node) growRT(depth int) {
	if len(n.rt) < depth {
		n.rt = append(make([][]*Contact, 0, depth), n.rt...)[:depth]
	}
}

// setRT stores c at (row, col), allocating the row on its first entry.
func (n *Node) setRT(row, col int, c *Contact) {
	n.growRT(row + 1)
	if n.rt[row] == nil {
		n.rt[row] = make([]*Contact, 1<<uint(n.cfg.B))
	}
	n.rt[row][col] = c
}

func (n *Node) insertRT(c Contact, cell **Contact) {
	row := ids.CommonPrefix(n.self.ID, c.ID, n.cfg.B)
	if row >= ids.NumDigits(n.cfg.B) {
		return
	}
	// The first writer keeps the slot.
	if col := c.ID.Digit(row, n.cfg.B); n.rtEntry(row, col).IsZero() {
		n.setRT(row, col, n.cell(cell, c))
	}
}

// RemoveContact scrubs a suspected-failed address from all routing state
// and starts leaf-set repair if a leaf was lost.
func (n *Node) RemoveContact(addr transport.Addr) {
	if n.deadUntil == nil {
		n.deadUntil = make(map[transport.Addr]time.Duration)
	}
	n.deadUntil[addr] = n.env.Now() + deadQuarantine
	delete(n.probeSent, addr)
	delete(n.lastPong, addr)
	repaired := false
	var gone *Contact
	filter := func(list []*Contact) []*Contact {
		out := list[:0]
		for _, c := range list {
			if c.Addr != addr {
				out = append(out, c)
			} else {
				repaired = true
				gone = c
			}
		}
		clear(list[len(out):])
		return out
	}
	n.leafCW = filter(n.leafCW)
	n.leafCCW = filter(n.leafCCW)
	for _, row := range n.rt {
		for i, c := range row {
			if c != nil && c.Addr == addr {
				gone = c
				row[i] = nil
			}
		}
	}
	// Remember the scrubbed contact for bounded re-probing: if it went
	// silent because of a partition rather than a crash, the probes are the
	// only traffic that can cross the healed boundary and re-merge the two
	// sides' routing state.
	if gone != nil {
		if n.removed == nil {
			n.removed = make(map[transport.Addr]removedContact)
		}
		n.removed[addr] = removedContact{c: gone}
	}
	if repaired {
		n.repairLeafset()
	}
}

// repairLeafset asks the extreme remaining leaves for their leaf sets; the
// merged replies refill the lost slots (paper §4.2: the leaf set "is used
// for rebuilding the routing tables upon failures").
func (n *Node) repairLeafset() {
	n.ctrRepairs.Inc()
	if len(n.leafCW) > 0 {
		n.env.Send(n.leafCW[len(n.leafCW)-1].Addr, LeafsetRequest{})
	}
	if len(n.leafCCW) > 0 {
		n.env.Send(n.leafCCW[len(n.leafCCW)-1].Addr, LeafsetRequest{})
	}
}

// Join bootstraps the node into an existing overlay through any member.
func (n *Node) Join(bootstrap transport.Addr) {
	n.env.Send(bootstrap, JoinRequest{Joiner: n.self})
}

func (n *Node) handleJoinRequest(m JoinRequest) {
	n.considerContact(m.Joiner)
	// Contribute routing rows 0..commonPrefix to the joiner's future table.
	cp := ids.CommonPrefix(n.self.ID, m.Joiner.ID, n.cfg.B)
	for r := 0; r <= cp && r < ids.NumDigits(n.cfg.B); r++ {
		var row []Contact // a row this node never allocated contributes only self
		if r < len(n.rt) {
			for _, c := range n.rt[r] {
				if c != nil {
					row = append(row, *c)
				}
			}
		}
		row = append(row, n.self)
		m.Rows = append(m.Rows, row)
	}
	next := n.nextHop(m.Joiner.ID, m.Joiner.Addr)
	if next.IsZero() {
		// We are the numerically closest *existing* node: complete the join.
		reply := JoinReply{Root: n.self, Rows: m.Rows, Leafset: n.Leafset()}
		n.env.Send(m.Joiner.Addr, reply)
		return
	}
	m.Hops++
	n.env.Send(next.Addr, m)
}

func (n *Node) handleJoinReply(m JoinReply) {
	n.considerContact(m.Root)
	for _, row := range m.Rows {
		for _, c := range row {
			n.considerContact(c)
		}
	}
	for _, c := range m.Leafset {
		n.considerContact(c)
	}
	n.joined = true
	n.ctrJoins.Inc()
	// Announce ourselves to everything we learned so they fold us into
	// their own state.
	for _, c := range n.knownContacts() {
		n.env.Send(c.Addr, NodeJoined{Node: n.self})
	}
}

// ProbeLeafset sends one liveness probe to every leaf-set member — one
// cycle of the overlay's periodic maintenance traffic.
func (n *Node) ProbeLeafset() {
	for _, c := range n.Leafset() {
		n.env.Send(c.Addr, n.probes().ping)
	}
}

// probes returns the node's boxed Ping and Pong, made on first use.
func (n *Node) probes() *boxedProbes {
	if n.boxed == nil {
		n.boxed = &boxedProbes{ping: Ping{From: n.self}, pong: Pong{From: n.self}}
	}
	return n.boxed
}

// StartMaintenance runs periodic leaf-set maintenance: every interval the
// node probes its leaves, and a leaf that never answered the previous
// cycle's probe is declared failed, scrubbed from all routing state, and
// the leaf set repaired from the survivors (§4.2: the leaf set "is used
// for rebuilding the routing tables upon failures"). The returned stop
// function cancels the loop.
func (n *Node) StartMaintenance(interval time.Duration) (stop func()) {
	return transport.Every(n.env, interval, func() bool {
		n.maintainOnce()
		return true
	})
}

// maintainOnce performs one maintenance cycle. It visits the leaves in
// Leafset's order — the clockwise half, then the counter-clockwise leaves
// not in it — by index rather than over a copy. That is the same walk:
// RemoveContact compacts both halves in place, so the leaf after a removed
// one moves into its index, and nothing is inserted during the cycle.
func (n *Node) maintainOnce() {
	now := n.env.Now()
	// probe sends c its probe, or scrubs it and reports true if it did not
	// answer the previous one.
	probe := func(c *Contact) (removed bool) {
		if sent, probed := n.probeSent[c.Addr]; probed && n.lastPong[c.Addr] < sent {
			// No pong since the previous probe: declare the leaf failed.
			delete(n.probeSent, c.Addr)
			n.RemoveContact(c.Addr)
			return true
		}
		if n.probeSent == nil {
			n.probeSent = make(map[transport.Addr]time.Duration)
		}
		n.probeSent[c.Addr] = now
		n.env.Send(c.Addr, n.probes().ping)
		return false
	}
	for i := 0; i < len(n.leafCW); {
		if !probe(n.leafCW[i]) {
			i++
		}
	}
	for i := 0; i < len(n.leafCCW); {
		c := n.leafCCW[i]
		if inHalf(n.leafCW, c.Addr) || !probe(c) {
			i++
		}
	}
	// Re-probe scrubbed contacts: a pong re-merges a healed partition (the
	// direct reply clears the quarantine and re-inserts the contact); a
	// crashed-for-good node exhausts its tries and is forgotten. Sorted
	// iteration keeps the probe order — and so the simulation — deterministic.
	if len(n.removed) == 0 {
		return
	}
	addrs := make([]transport.Addr, 0, len(n.removed))
	for a := range n.removed {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		rc := n.removed[a]
		if rc.tries >= recontactTries {
			delete(n.removed, a)
			continue
		}
		rc.tries++
		n.removed[a] = rc
		n.ctrRecontacts.Inc()
		n.env.Send(a, n.probes().ping)
	}
}
