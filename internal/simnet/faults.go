package simnet

import (
	"fmt"
	"strings"
	"time"

	"totoro/internal/obs"
	"totoro/internal/transport"
)

// Network-level fault injection: blocked links (partitions), per-link
// fault rules (drop/duplicate/reorder/extra-delay), and the always-on
// invariant hook. All of it runs inside the deterministic event loop —
// fault draws come from the network's seeded rng, so a (seed, schedule)
// pair replays bit-identically.

// linkKey identifies one directed link.
type linkKey struct{ from, to transport.Addr }

// LinkRule injects faults on every message crossing a matching link.
// Probabilities are per message and independent; a message can be both
// delayed and duplicated. Rules are applied in installation order and all
// matching rules apply.
type LinkRule struct {
	// From/To restrict the rule to links whose endpoint is in the set
	// (nil = any). A rule with both nil applies to every link.
	From, To map[transport.Addr]bool
	// Bidirectional also matches the reverse direction (To→From).
	Bidirectional bool
	// Drop is the probability the message is discarded (Bernoulli link
	// loss, counted under net.dropped_fault).
	Drop float64
	// Dup is the probability the network delivers a second copy of the
	// message after an extra reorder-window jitter.
	Dup float64
	// Reorder is the probability the message is held back by a random
	// extra delay in [0, ReorderWindow), letting later sends overtake it.
	Reorder float64
	// ReorderWindow bounds the reorder holdback (0 = 20ms).
	ReorderWindow time.Duration
	// Delay is a fixed extra one-way delay on every matching message
	// (slow links, stragglers).
	Delay time.Duration
}

const defaultReorderWindow = 20 * time.Millisecond

func (r *LinkRule) matches(from, to transport.Addr) bool {
	if matchEnds(r.From, from, r.To, to) {
		return true
	}
	return r.Bidirectional && matchEnds(r.From, to, r.To, from)
}

func matchEnds(fromSet map[transport.Addr]bool, from transport.Addr, toSet map[transport.Addr]bool, to transport.Addr) bool {
	if fromSet != nil && !fromSet[from] {
		return false
	}
	if toSet != nil && !toSet[to] {
		return false
	}
	return true
}

// AddrSet builds the set form LinkRule wants from a slice.
func AddrSet(addrs []transport.Addr) map[transport.Addr]bool {
	s := make(map[transport.Addr]bool, len(addrs))
	for _, a := range addrs {
		s[a] = true
	}
	return s
}

// AddLinkRule installs a fault rule and returns a remover. Removal is
// idempotent and leaves other rules untouched, so overlapping nemesis
// phases compose.
func (n *Network) AddLinkRule(r LinkRule) (remove func()) {
	rule := &r
	n.rules = append(n.rules, rule)
	removed := false
	return func() {
		if removed {
			return
		}
		removed = true
		for i, have := range n.rules {
			if have == rule {
				n.rules = append(n.rules[:i], n.rules[i+1:]...)
				return
			}
		}
	}
}

// block adds one directed blocked link (ref-counted so overlapping
// partitions compose: a link stays blocked until every blocker heals).
func (n *Network) block(from, to transport.Addr) {
	if n.blocked == nil {
		n.blocked = make(map[linkKey]int)
	}
	n.blocked[linkKey{from, to}]++
}

func (n *Network) unblock(from, to transport.Addr) {
	k := linkKey{from, to}
	if c := n.blocked[k]; c > 1 {
		n.blocked[k] = c - 1
	} else {
		delete(n.blocked, k)
	}
}

// Partition cuts the network into the given groups: every link between
// two different groups is blocked in both directions (nodes in no group
// keep all their links). It returns a heal function that removes exactly
// the blocks it added; partitions therefore compose and heal
// independently.
func (n *Network) Partition(groups ...[]transport.Addr) (heal func()) {
	var pairs []linkKey
	for i, g1 := range groups {
		for _, g2 := range groups[i+1:] {
			for _, a := range g1 {
				for _, b := range g2 {
					n.block(a, b)
					n.block(b, a)
					pairs = append(pairs, linkKey{a, b}, linkKey{b, a})
				}
			}
		}
	}
	healed := false
	return func() {
		if healed {
			return
		}
		healed = true
		for _, p := range pairs {
			n.unblock(p.from, p.to)
		}
	}
}

// BlockOneWay blocks only the from→to direction of every link between the
// two sets — an asymmetric partition: one side's messages vanish while the
// reverse path still works. Returns a heal function.
func (n *Network) BlockOneWay(from, to []transport.Addr) (heal func()) {
	var pairs []linkKey
	for _, a := range from {
		for _, b := range to {
			if a == b {
				continue
			}
			n.block(a, b)
			pairs = append(pairs, linkKey{a, b})
		}
	}
	healed := false
	return func() {
		if healed {
			return
		}
		healed = true
		for _, p := range pairs {
			n.unblock(p.from, p.to)
		}
	}
}

// Reachable reports whether messages can flow in both directions between
// a and b right now (both alive, neither direction blocked). Invariant
// checkers use it to scope safety assertions to nodes that can actually
// reconcile.
func (n *Network) Reachable(a, b transport.Addr) bool {
	if !n.Alive(a) || !n.Alive(b) {
		return false
	}
	if n.blocked[linkKey{a, b}] > 0 || n.blocked[linkKey{b, a}] > 0 {
		return false
	}
	return true
}

// --- invariant checking ---

// InvariantViolation is a failed safety check: the virtual time it was
// detected, the network seed that deterministically replays it, the
// violated assertion, and the tail of the fleet's merged trace ring.
type InvariantViolation struct {
	At    time.Duration
	Seed  int64
	Err   error
	Trace []obs.Event
}

// Error formats the violation with everything a replay needs.
func (v *InvariantViolation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simnet: invariant violated at %v (seed %d for deterministic replay): %v",
		v.At, v.Seed, v.Err)
	if len(v.Trace) > 0 {
		fmt.Fprintf(&b, "\ntrace tail (%d events):", len(v.Trace))
		for _, ev := range v.Trace {
			fmt.Fprintf(&b, "\n  %v %s %s key=%s from=%s to=%s %s",
				ev.At, ev.Node, ev.Kind, ev.Key, ev.From, ev.To, ev.Note)
		}
	}
	return b.String()
}

// violationTraceTail bounds the trace excerpt attached to a violation.
const violationTraceTail = 25

// AddInvariant registers an always-on safety check. All registered checks
// run after every event that advances the virtual clock and on
// CheckInvariants (quiesce). The first check to return an error ends the
// run: the violation is recorded and the Config.OnViolation handler fires
// (panicking with the violation when no handler is installed).
func (n *Network) AddInvariant(fn func() error) {
	n.invariants = append(n.invariants, fn)
}

// Violation returns the recorded invariant violation, if any.
//
//lint:ignore unused the chaos tests' verdict, read by the root package's chaos tests and golden pins
func (n *Network) Violation() *InvariantViolation { return n.violation }

// CheckInvariants runs every registered check now — the quiesce check a
// harness issues after the schedule drains.
func (n *Network) CheckInvariants() { n.runInvariants() }

func (n *Network) runInvariants() {
	if n.violation != nil {
		return // first violation wins; the run is already failed
	}
	for _, fn := range n.invariants {
		if err := fn(); err != nil {
			trace := n.MergedTrace()
			if len(trace) > violationTraceTail {
				trace = trace[len(trace)-violationTraceTail:]
			}
			v := &InvariantViolation{At: n.now, Seed: n.cfg.Seed, Err: err, Trace: trace}
			n.violation = v
			if n.cfg.OnViolation != nil {
				n.cfg.OnViolation(v)
				return
			}
			panic(v)
		}
	}
}
