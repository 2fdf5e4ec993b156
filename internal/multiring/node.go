package multiring

import (
	"fmt"
	"math/rand"
	"sort"

	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// Scope says how far an FL application's packets may travel (§4.4
// "Multi-rings": owners specify whether applications span multiple zones).
type Scope int

const (
	// ScopeZonal packets must stay inside their origin zone; any hop that
	// would cross a zone boundary blocks them (administrative isolation).
	ScopeZonal Scope = iota
	// ScopeGlobal packets may traverse zones (at most m · O(log N) hops).
	ScopeGlobal
)

// Message is the marker interface for multiring wire messages.
type Message interface{ multiringMessage() }

// Packet is one routed message in the two-level multi-ring.
type Packet struct {
	Key     ids.ID
	Scope   Scope
	SrcZone uint64
	Hops    int
	Final   bool // set when the sender determined the receiver is the owner
	Payload any
}

func (Packet) multiringMessage() {}

// WireSize charges the header plus payload.
func (p Packet) WireSize() int { return 48 + transport.SizeOf(p.Payload) }

// Config parameterizes a multiring node.
type Config struct {
	// MBits is the zone-prefix width (zones = 2^MBits at most).
	MBits int
}

// Node is one participant of the two-level multi-ring overlay.
type Node struct {
	env  transport.Env
	cfg  Config
	self ring.Contact
	zone uint64

	level1 []ring.Contact // inter-zone fingers: entry i-1 targets (P+2^(i-1)) mod 2^m
	level2 []ring.Contact // intra-zone fingers: entry i-1 targets (S+2^(i-1)) mod 2^n
	succ   ring.Contact   // immediate suffix successor within the zone

	deliver func(Packet)

	// Cached handles into env.Metrics().
	ctrBlocked   *obs.Counter
	ctrForwarded *obs.Counter
}

// NewNode creates a multiring node. deliver is invoked when this node owns
// a packet's key; it may be nil.
func NewNode(env transport.Env, self ring.Contact, cfg Config, deliver func(Packet)) *Node {
	m := env.Metrics()
	return &Node{
		env:     env,
		cfg:     cfg,
		self:    self,
		zone:    self.ID.ZonePrefix(cfg.MBits),
		deliver: deliver,
		// Blocked counts packets refused at the zone boundary; Forwarded
		// counts packets passed on.
		ctrBlocked:   m.Counter("multiring.blocked"),
		ctrForwarded: m.Counter("multiring.forwarded"),
	}
}

// Metrics returns the node's telemetry registry ("multiring.*" counters).
func (n *Node) Metrics() *obs.Registry { return n.env.Metrics() }

// Blocked returns how many packets this node refused at the zone boundary.
func (n *Node) Blocked() int64 { return n.ctrBlocked.Value() }

// Forwarded returns how many packets this node passed on.
func (n *Node) Forwarded() int64 { return n.ctrForwarded.Value() }

// Self returns the node's contact.
func (n *Node) Self() ring.Contact { return n.self }

// Zone returns the node's zone ID (its m-bit prefix).
func (n *Node) Zone() uint64 { return n.zone }

// Receive implements transport.Handler for multiring messages.
func (n *Node) Receive(from transport.Addr, msg any) {
	if p, ok := msg.(Packet); ok {
		n.handle(p)
	}
}

// Route originates a packet toward key.
func (n *Node) Route(key ids.ID, scope Scope, payload any) {
	n.handle(Packet{Key: key, Scope: scope, SrcZone: n.zone, Payload: payload})
}

func (n *Node) handle(p Packet) {
	if p.Final {
		n.deliverLocal(p)
		return
	}
	destZone := p.Key.ZonePrefix(n.cfg.MBits)
	if destZone != n.zone {
		// The paper's administrator rule: a packet leaves its zone only if
		// its application is multi-zone.
		if p.Scope != ScopeGlobal {
			n.ctrBlocked.Inc()
			return
		}
		next := n.nextZoneHop(destZone)
		if next.IsZero() {
			// No occupied zone makes progress; the destination zone is
			// unpopulated. Deliver locally as the closest zone.
			n.routeWithinZone(p)
			return
		}
		p.Hops++
		n.ctrForwarded.Inc()
		n.env.Send(next.Addr, p)
		return
	}
	n.routeWithinZone(p)
}

// nextZoneHop picks the level-1 finger whose zone lies furthest along the
// clockwise arc (n.zone, destZone] on the m-bit zone ring.
func (n *Node) nextZoneHop(destZone uint64) ring.Contact {
	m := n.cfg.MBits
	var best ring.Contact
	var bestAdv uint64
	span := zoneDist(n.zone, destZone, m)
	for _, c := range n.level1 {
		if c.IsZero() {
			continue
		}
		cz := c.ID.ZonePrefix(m)
		adv := zoneDist(n.zone, cz, m)
		if adv == 0 || adv > span {
			continue // outside the arc
		}
		if adv > bestAdv {
			best, bestAdv = c, adv
		}
	}
	return best
}

// zoneDist is the clockwise distance from a to b on the 2^m zone ring.
func zoneDist(a, b uint64, m int) uint64 {
	mod := uint64(1) << uint(m)
	return (b - a) & (mod - 1)
}

// routeWithinZone performs Chord-style greedy routing on the intra-zone
// suffix ring; the owner of a key is the member whose suffix is the key
// suffix's successor.
func (n *Node) routeWithinZone(p Packet) {
	m := n.cfg.MBits
	keyS := p.Key.Suffix(m)
	selfS := n.self.ID.Suffix(m)
	if keyS == selfS || n.succ.IsZero() || n.succ.Addr == n.self.Addr {
		n.deliverLocal(p)
		return
	}
	succS := n.succ.ID.Suffix(m)
	if betweenSuffix(keyS, selfS, succS, m) {
		// Our successor owns the key.
		p.Hops++
		p.Final = true
		n.ctrForwarded.Inc()
		n.env.Send(n.succ.Addr, p)
		return
	}
	// Closest preceding finger: the level-2 entry furthest along
	// (selfS, keyS).
	var best ring.Contact
	var bestAdv ids.ID
	span := subSuffix(keyS, selfS, m)
	for _, c := range n.level2 {
		if c.IsZero() || c.Addr == n.self.Addr {
			continue
		}
		cs := c.ID.Suffix(m)
		adv := subSuffix(cs, selfS, m)
		if adv.IsZero() || span.Less(adv) {
			continue
		}
		if bestAdv.Less(adv) {
			best, bestAdv = c, adv
		}
	}
	if best.IsZero() {
		best = n.succ
	}
	p.Hops++
	n.ctrForwarded.Inc()
	n.env.Send(best.Addr, p)
}

func (n *Node) deliverLocal(p Packet) {
	if n.deliver != nil {
		n.deliver(p)
	}
}

// subSuffix computes (a - b) mod 2^(128-m) for suffix-ring arithmetic.
func subSuffix(a, b ids.ID, m int) ids.ID { return a.Sub(b).Suffix(m) }

// betweenSuffix reports whether x ∈ (a, b] on the suffix ring.
func betweenSuffix(x, a, b ids.ID, m int) bool {
	xr := subSuffix(x, a, m)
	br := subSuffix(b, a, m)
	return !xr.IsZero() && xr.Cmp(br) <= 0
}

// BuildStatic wires a population of multiring nodes: level-1 fingers to
// exponentially spaced zones, level-2 fingers to exponentially spaced
// suffixes within each zone, and immediate suffix successors. All nodes
// must share the same MBits.
func BuildStatic(nodes []*Node, rng *rand.Rand) {
	if len(nodes) == 0 {
		return
	}
	m := nodes[0].cfg.MBits
	byZone := make(map[uint64][]*Node)
	for _, n := range nodes {
		byZone[n.zone] = append(byZone[n.zone], n)
	}
	zones := make([]uint64, 0, len(byZone))
	for z := range byZone {
		zones = append(zones, z)
	}
	sort.Slice(zones, func(i, j int) bool { return zones[i] < zones[j] })

	// Sort each zone's members by suffix.
	for _, members := range byZone {
		sort.Slice(members, func(i, j int) bool {
			return members[i].self.ID.Suffix(m).Less(members[j].self.ID.Suffix(m))
		})
	}

	for _, n := range nodes {
		n.buildLevel1(zones, byZone, rng)
		n.buildLevel2(byZone[n.zone])
	}
}

// buildLevel1 installs, for i = 1..m, a contact inside the first occupied
// zone at or clockwise-after (P + 2^(i-1)) mod 2^m.
func (n *Node) buildLevel1(zones []uint64, byZone map[uint64][]*Node, rng *rand.Rand) {
	m := n.cfg.MBits
	n.level1 = make([]ring.Contact, m)
	for i := 1; i <= m; i++ {
		target := (n.zone + 1<<uint(i-1)) & (1<<uint(m) - 1)
		z, ok := firstZoneAtOrAfter(zones, target, m)
		if !ok || z == n.zone {
			continue
		}
		members := byZone[z]
		n.level1[i-1] = members[rng.Intn(len(members))].self
	}
}

// firstZoneAtOrAfter finds the occupied zone with the smallest clockwise
// distance from target (including target itself).
func firstZoneAtOrAfter(zones []uint64, target uint64, m int) (uint64, bool) {
	if len(zones) == 0 {
		return 0, false
	}
	best := zones[0]
	bestD := zoneDist(target, zones[0], m)
	for _, z := range zones[1:] {
		if d := zoneDist(target, z, m); d < bestD {
			best, bestD = z, d
		}
	}
	return best, true
}

// buildLevel2 installs intra-zone fingers and the immediate successor from
// the zone membership sorted by suffix.
func (n *Node) buildLevel2(members []*Node) {
	m := n.cfg.MBits
	if len(members) <= 1 {
		n.succ = ring.Contact{}
		return
	}
	// Locate self.
	selfIdx := -1
	for i, mem := range members {
		if mem.self.Addr == n.self.Addr {
			selfIdx = i
			break
		}
	}
	if selfIdx < 0 {
		panic(fmt.Sprintf("multiring: node %s not in its own zone member list", n.self.Addr))
	}
	n.succ = members[(selfIdx+1)%len(members)].self

	nBits := ids.Bits - m
	selfS := n.self.ID.Suffix(m)
	n.level2 = make([]ring.Contact, 0, nBits)
	var prev ring.Contact
	for i := 1; i <= nBits; i++ {
		target := selfS.Add(pow2(i - 1)).Suffix(m)
		c := successorMember(members, target, m)
		if c.Addr == prev.Addr {
			continue // dedupe runs of identical fingers
		}
		n.level2 = append(n.level2, c)
		prev = c
	}
}

// pow2 returns the ID with only bit k set (k in [0,127]).
func pow2(k int) ids.ID {
	if k >= 64 {
		return ids.ID{Hi: 1 << uint(k-64)}
	}
	return ids.ID{Lo: 1 << uint(k)}
}

// successorMember finds the member whose suffix is the circular successor
// of target (the member with minimal (suffix - target) mod 2^n).
func successorMember(members []*Node, target ids.ID, m int) ring.Contact {
	best := members[0].self
	bestD := subSuffix(best.ID.Suffix(m), target, m)
	for _, mem := range members[1:] {
		s := mem.self.ID.Suffix(m)
		d := subSuffix(s, target, m)
		if s == target {
			return mem.self
		}
		if d.Less(bestD) {
			best, bestD = mem.self, d
		}
	}
	return best
}

// OwnerWithinZone computes, from a global view, which member of the key's
// zone owns the key (suffix successor). It is used by tests and the
// experiment harness as ground truth.
func OwnerWithinZone(nodes []*Node, key ids.ID, mBits int) *Node {
	zone := key.ZonePrefix(mBits)
	var members []*Node
	for _, n := range nodes {
		if n.zone == zone {
			members = append(members, n)
		}
	}
	if len(members) == 0 {
		return nil
	}
	keyS := key.Suffix(mBits)
	best := members[0]
	bestD := subSuffix(best.self.ID.Suffix(mBits), keyS, mBits)
	for _, mem := range members[1:] {
		s := mem.self.ID.Suffix(mBits)
		if s == keyS {
			return mem
		}
		d := subSuffix(s, keyS, mBits)
		if d.Less(bestD) {
			best, bestD = mem, d
		}
	}
	return best
}
