package relay

import (
	"math"
	"sort"
	"time"

	"totoro/internal/bandit"
	"totoro/internal/obs"
	"totoro/internal/transport"
)

// Config parameterizes a relay node.
type Config struct {
	// Neighbors are the node's outgoing links.
	Neighbors []transport.Addr
	// InNeighbors are the nodes with links INTO this node; cost
	// advertisements flow to them (a node's J is useful to whoever might
	// forward through it). Defaults to Neighbors (symmetric links).
	InNeighbors []transport.Addr
	// AckTimeout is the per-hop retransmission deadline (one "time slot"
	// of the geometric link model).
	AckTimeout time.Duration
	// Policy selects the planning policy: "totoro" (default, KL-UCB with
	// lookahead) or "greedy" (empirical next-hop, the Fig 10 baseline) —
	// kept here so the ablation runs both over identical plumbing.
	Policy string
}

// maxTTL bounds a frame's hop count.
const maxTTL = 32

func (c Config) withDefaults() Config {
	if c.AckTimeout == 0 {
		c.AckTimeout = 50 * time.Millisecond
	}
	if c.Policy == "" {
		c.Policy = "totoro"
	}
	if c.InNeighbors == nil {
		c.InNeighbors = c.Neighbors
	}
	return c
}

// linkStats is this node's semi-bandit record for one outgoing link.
type linkStats struct {
	attempts  int
	successes int
}

func (s *linkStats) thetaHat() float64 {
	if s.attempts == 0 {
		return 0
	}
	return float64(s.successes) / float64(s.attempts)
}

// pendingFrame is a frame awaiting its hop ack.
type pendingFrame struct {
	data   Data
	next   transport.Addr
	cancel func()
}

// Node is one relay participant.
type Node struct {
	env transport.Env
	cfg Config

	links map[transport.Addr]*linkStats
	// order is the sorted neighbor iteration order: route()'s argmin scans
	// it so cost ties break toward the same neighbor in every run.
	order []transport.Addr
	// jSelf is this node's optimistic cost-to-destination table.
	jSelf map[transport.Addr]float64
	// jNeighbor is the last advertised table per neighbor.
	jNeighbor map[transport.Addr]map[transport.Addr]float64

	seq     uint64
	frameID uint64
	pending map[uint64]*pendingFrame
	seen    map[uint64]bool // frame IDs already routed (duplicate guard)
	totalTx int             // time-slot counter τ for the KL-UCB budget
	deliver func(d Data)

	// Cached handles into env.Metrics() — see the "relay.*" names below.
	ctrDelivered   *obs.Counter
	ctrForwarded   *obs.Counter
	ctrRetransmits *obs.Counter
	ctrExpired     *obs.Counter
}

// New creates a relay node; deliver fires when a frame addressed to this
// node arrives (may be nil).
func New(env transport.Env, cfg Config, deliver func(Data)) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		env:       env,
		cfg:       cfg,
		links:     make(map[transport.Addr]*linkStats, len(cfg.Neighbors)),
		jSelf:     map[transport.Addr]float64{env.Self(): 0},
		jNeighbor: make(map[transport.Addr]map[transport.Addr]float64),
		pending:   make(map[uint64]*pendingFrame),
		seen:      make(map[uint64]bool),
		deliver:   deliver,
	}
	m := env.Metrics()
	n.ctrDelivered = m.Counter("relay.delivered")
	n.ctrForwarded = m.Counter("relay.forwarded")
	n.ctrRetransmits = m.Counter("relay.retransmits")
	n.ctrExpired = m.Counter("relay.expired") // frames dropped on TTL/visited exhaustion
	for _, nb := range cfg.Neighbors {
		n.links[nb] = &linkStats{}
	}
	n.order = make([]transport.Addr, 0, len(n.links))
	for nb := range n.links {
		n.order = append(n.order, nb)
	}
	sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
	return n
}

// Metrics returns the node's telemetry registry ("relay.*" counters).
func (n *Node) Metrics() *obs.Registry { return n.env.Metrics() }

// omega is the empirical transmission cost with exploration adjustment of
// one outgoing link: 1 / KLUCB(θ̂) (Algorithm 1).
func (n *Node) omega(nb transport.Addr) float64 {
	s, ok := n.links[nb]
	if !ok {
		return math.Inf(1)
	}
	budget := math.Log(float64(n.totalTx + 1))
	return 1 / bandit.KLUCBUpper(s.thetaHat(), s.attempts, budget)
}

// greedyCost is the next-hop baseline's link score: empirical delay with
// one optimistic free try.
func (n *Node) greedyCost(nb transport.Addr) float64 {
	s := n.links[nb]
	if s.attempts == 0 {
		return 1
	}
	th := s.thetaHat()
	if th <= 0 {
		return math.MaxFloat64 / 4
	}
	return 1 / th
}

// recomputeJ refreshes this node's cost table from its links' ω and the
// neighbors' advertised costs.
func (n *Node) recomputeJ() {
	j := map[transport.Addr]float64{n.env.Self(): 0}
	for nb, tbl := range n.jNeighbor {
		w := n.omega(nb)
		for dst, cost := range tbl {
			if c := w + cost; c < jOr(j, dst) {
				j[dst] = c
			}
		}
	}
	// Direct links: a neighbor is itself a destination one ω away.
	for nb := range n.links {
		if c := n.omega(nb); c < jOr(j, nb) {
			j[nb] = c
		}
	}
	n.jSelf = j
}

func jOr(m map[transport.Addr]float64, k transport.Addr) float64 {
	if v, ok := m[k]; ok {
		return v
	}
	return math.Inf(1)
}

// AdvertiseNow recomputes and pushes this node's cost table to all
// neighbors. There is no periodic exchange: the driver decides when
// adverts flow.
func (n *Node) AdvertiseNow() {
	n.recomputeJ()
	tbl := make(map[transport.Addr]float64, len(n.jSelf))
	for d, c := range n.jSelf {
		tbl[d] = c
	}
	for _, nb := range n.cfg.InNeighbors {
		n.env.Send(nb, Advert{From: n.env.Self(), J: tbl})
	}
}

// Send originates a payload toward dst.
func (n *Node) Send(dst transport.Addr, payload any) {
	n.frameID++
	n.route(Data{
		Dst:     dst,
		Origin:  n.env.Self(),
		ID:      hashAddr(n.env.Self())<<20 | n.frameID,
		TTL:     maxTTL,
		Payload: payload,
	})
}

// hashAddr gives frame IDs an origin-specific high part.
func hashAddr(a transport.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	return h & 0xFFFFFFFFFFF
}

// route picks the next hop per the configured policy and transmits with
// per-hop retransmission.
func (n *Node) route(d Data) {
	if d.Dst == n.env.Self() {
		n.ctrDelivered.Inc()
		if n.deliver != nil {
			n.deliver(d)
		}
		return
	}
	if d.TTL <= 0 {
		n.ctrExpired.Inc()
		return
	}
	d.TTL--
	visited := make(map[transport.Addr]bool, len(d.Visited)+1)
	for _, v := range d.Visited {
		visited[v] = true
	}
	visited[n.env.Self()] = true

	best := transport.None
	bestCost := math.Inf(1)
	for _, nb := range n.order {
		if visited[nb] && nb != d.Dst {
			continue
		}
		var cost float64
		if n.cfg.Policy == "greedy" {
			cost = n.greedyCost(nb)
			if nb != d.Dst {
				// The greedy baseline still needs reachability; use hop
				// counts only (no quality lookahead).
				if _, reach := n.jNeighborHas(nb, d.Dst); !reach {
					continue
				}
			}
		} else {
			if nb == d.Dst {
				cost = n.omega(nb)
			} else {
				jn, ok := n.jNeighborHas(nb, d.Dst)
				if !ok {
					continue
				}
				cost = n.omega(nb) + jn
			}
		}
		if cost < bestCost {
			best, bestCost = nb, cost
		}
	}
	if best == transport.None {
		n.ctrExpired.Inc()
		return
	}
	d.Visited = append(append([]transport.Addr(nil), d.Visited...), n.env.Self())
	n.transmit(d, best)
}

// jNeighborHas returns neighbor nb's advertised cost to dst.
func (n *Node) jNeighborHas(nb, dst transport.Addr) (float64, bool) {
	tbl, ok := n.jNeighbor[nb]
	if !ok {
		return 0, false
	}
	c, ok := tbl[dst]
	return c, ok
}

// transmit sends the frame one hop, retrying on ack timeout; every attempt
// is a semi-bandit observation.
func (n *Node) transmit(d Data, next transport.Addr) {
	n.ctrForwarded.Inc()
	n.seq++
	d.Seq = n.seq // hop-local id for the ack
	s := n.links[next]
	s.attempts++
	n.totalTx++
	p := &pendingFrame{data: d, next: next}
	p.cancel = n.env.After(n.cfg.AckTimeout, func() { n.retry(d.Seq) })
	n.pending[d.Seq] = p
	n.env.Send(next, d)
}

func (n *Node) retry(seq uint64) {
	p, ok := n.pending[seq]
	if !ok {
		return
	}
	n.ctrRetransmits.Inc()
	s := n.links[p.next]
	s.attempts++
	n.totalTx++
	p.cancel = n.env.After(n.cfg.AckTimeout, func() { n.retry(seq) })
	n.env.Send(p.next, p.data)
}

// Receive implements the relay part of a node's message handling; it
// reports whether the message belonged to this layer.
func (n *Node) Receive(from transport.Addr, msg any) bool {
	switch m := msg.(type) {
	case Data:
		n.env.Send(from, Ack{Seq: m.Seq})
		if n.seen[m.ID] {
			return true // retransmitted duplicate of an already-routed frame
		}
		n.seen[m.ID] = true
		n.route(m)
	case Ack:
		if p, ok := n.pending[m.Seq]; ok {
			p.cancel()
			delete(n.pending, m.Seq)
			n.links[p.next].successes++
		}
	case Advert:
		tbl := make(map[transport.Addr]float64, len(m.J))
		for d, c := range m.J {
			tbl[d] = c
		}
		n.jNeighbor[m.From] = tbl
		n.recomputeJ()
	default:
		return false
	}
	return true
}
