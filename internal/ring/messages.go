package ring

import (
	"totoro/internal/ids"
	"totoro/internal/transport"
)

// Message is the marker interface for all overlay wire messages, so that a
// composite node handler can dispatch ring traffic by a single type switch.
type Message interface{ ringMessage() }

// Envelope carries a routed application payload one overlay hop.
type Envelope struct {
	Key    ids.ID
	Source Contact
	Hops   int
	// Seq identifies the envelope for per-hop acknowledgements.
	Seq     uint64
	Payload any
}

func (Envelope) ringMessage() {}

// WireSize charges the envelope header plus its payload.
func (e Envelope) WireSize() int { return 40 + transport.SizeOf(e.Payload) }

// HopAck acknowledges receipt of an Envelope hop when reliable hops are
// enabled (Config.ReliableHops).
type HopAck struct{ Seq uint64 }

func (HopAck) ringMessage() {}

// WireSize reports a minimal ack frame.
func (HopAck) WireSize() int { return 16 }

// JoinRequest starts the join protocol: it is routed toward the joiner's
// own NodeId, collecting routing-table rows from every hop on the way.
type JoinRequest struct {
	Joiner Contact
	// Rows[i] holds row i of some hop's routing table; merged by the joiner.
	Rows [][]Contact
	Hops int
}

func (JoinRequest) ringMessage() {}

// WireSize grows with the accumulated state snapshot.
func (j JoinRequest) WireSize() int { return 48 + 24*countContacts(j.Rows) }

// JoinReply is sent by the rendezvous node (numerically closest to the
// joiner) carrying the collected rows and its own leaf set.
type JoinReply struct {
	Root    Contact
	Rows    [][]Contact
	Leafset []Contact
}

func (JoinReply) ringMessage() {}

// WireSize grows with the transferred state.
func (j JoinReply) WireSize() int { return 48 + 24*(countContacts(j.Rows)+len(j.Leafset)) }

// NodeJoined announces a freshly joined node to every contact it learned,
// so that they can insert it into their own leaf sets and routing tables.
type NodeJoined struct{ Node Contact }

func (NodeJoined) ringMessage() {}

// LeafsetRequest asks a peer for its current leaf set (used for repair).
type LeafsetRequest struct{}

func (LeafsetRequest) ringMessage() {}

// LeafsetReply returns the peer's leaf set plus its own contact.
type LeafsetReply struct {
	From    Contact
	Leafset []Contact
}

func (LeafsetReply) ringMessage() {}

// WireSize grows with the leaf set.
func (l LeafsetReply) WireSize() int { return 32 + 24*len(l.Leafset) }

// Ping probes liveness.
type Ping struct{ From Contact }

func (Ping) ringMessage() {}

// Pong answers a Ping.
type Pong struct{ From Contact }

func (Pong) ringMessage() {}

func countContacts(rows [][]Contact) int {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	return n
}
