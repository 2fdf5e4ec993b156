// Package ring implements the Pastry-style structured P2P overlay that is
// Totoro's Layer 1 substrate (paper §4.2, §6).
//
// Every node keeps three data structures, exactly as in the paper:
//
//   - a routing table of ⌈128/b⌉ rows × 2^b−1 entries used for greedy
//     prefix routing (the paper's configurable "base bit value" b of 3, 4,
//     or 5 gives tree fanouts of 8, 16 and 32);
//   - a leaf set of the numerically closest nodes on either side, used to
//     finish routes and to rebuild state upon failures; and
//   - a neighborhood set of physically (proximity-wise) close nodes used to
//     keep routing-table entries locality-aware.
//
// Any message routed with a 128-bit key reaches the live node whose NodeId
// is numerically closest to the key within ⌈log_{2^b} N⌉ hops.
//
// Nodes are event-driven transport.Handlers: the same logic runs under
// internal/simnet for large-scale deterministic experiments and over real
// TCP via internal/transport/tcpnet.
package ring

import (
	"totoro/internal/ids"
	"totoro/internal/transport"
)

// Contact is the (NodeId, address) pair stored in routing state.
type Contact struct {
	ID   ids.ID
	Addr transport.Addr
}

// IsZero reports whether c is the empty contact.
func (c Contact) IsZero() bool { return c.Addr == transport.None }

// Delivery describes a routed message arriving at its owner node.
type Delivery struct {
	// Key is the 128-bit routing key.
	Key ids.ID
	// Source is the node that originated the route.
	Source Contact
	// Hops is the number of overlay hops the message traversed.
	Hops int
	// Payload is the application message.
	Payload any
}

// App is the upcall interface of the overlay (the classic structured-overlay
// common API). Totoro's pub/sub forest layer is implemented as an App.
type App interface {
	// Deliver is invoked on the node whose ID is numerically closest to the
	// key (the rendezvous node).
	Deliver(d Delivery)
	// Forward is invoked on every intermediate node before the message is
	// forwarded to next. Returning false consumes the message here (used by
	// the pub/sub layer to terminate subscription JOINs at the first node
	// already on the tree). Implementations may mutate d.Payload.
	Forward(d *Delivery, next Contact) bool
}

// NopApp is an App that accepts deliveries silently and always forwards.
type NopApp struct{}

// Deliver implements App.
func (NopApp) Deliver(Delivery) {}

// Forward implements App.
func (NopApp) Forward(*Delivery, Contact) bool { return true }
