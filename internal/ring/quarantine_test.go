package ring

import (
	"testing"
	"time"

	"totoro/internal/ids"
)

func inKnown(n *Node, c Contact) bool {
	for _, k := range n.knownContacts() {
		if k.Addr == c.Addr {
			return true
		}
	}
	return false
}

// TestQuarantineExpiresAndReaccepts covers the dead-quarantine life cycle:
// a removed contact is refused re-insertion while the quarantine holds (so
// stale gossip cannot resurrect it), accepted again once it expires, and
// lifted early by a message from the quarantined address itself.
func TestQuarantineExpiresAndReaccepts(t *testing.T) {
	c := newStaticCluster(t, 50, Config{B: 4}, 41)
	n := c.nodes[0]

	victim := n.leafCW[0]
	n.RemoveContact(victim.Addr)
	c.net.RunUntilIdle() // let leaf-set repair traffic settle
	if inKnown(n, victim) {
		t.Fatal("victim still known right after RemoveContact")
	}

	// Gossip about the victim during the quarantine must be ignored.
	n.Receive(c.nodes[1].self.Addr, NodeJoined{Node: victim})
	if inKnown(n, victim) {
		t.Fatal("quarantined contact was re-inserted by gossip")
	}

	// Advance virtual time past the quarantine, then gossip again.
	n.env.After(deadQuarantine+time.Millisecond, func() {})
	c.net.RunUntilIdle()
	n.Receive(c.nodes[1].self.Addr, NodeJoined{Node: victim})
	if !inKnown(n, victim) {
		t.Fatal("contact still refused after quarantine expired")
	}

	// A message received directly FROM the quarantined address is
	// first-hand liveness proof (the crash-restarted node announcing its
	// rejoin) and lifts the quarantine immediately.
	third := n.leafCW[0]
	n.RemoveContact(third.Addr)
	c.net.RunUntilIdle()
	n.Receive(c.nodes[1].self.Addr, NodeJoined{Node: third})
	if inKnown(n, third) {
		t.Fatal("quarantine did not hold against gossip about the third victim")
	}
	n.Receive(third.Addr, NodeJoined{Node: third})
	if !inKnown(n, third) {
		t.Fatal("direct receipt from the quarantined address did not lift the quarantine")
	}
}

// TestClosestLeavesTracksOwnerSuccession checks the invariant the failover
// layer relies on: the contact the ring would promote to owner of a key
// after the current owner dies is the first entry of the owner's
// ClosestLeaves for that key.
func TestClosestLeavesTracksOwnerSuccession(t *testing.T) {
	c := newStaticCluster(t, 300, Config{B: 4}, 42)
	for trial := 0; trial < 50; trial++ {
		key := ids.Random(c.rng)
		ownerIdx := c.owner(key)
		owner := c.nodes[ownerIdx]

		cl := owner.ClosestLeaves(key, 4)
		if len(cl) != 4 {
			t.Fatalf("trial %d: got %d closest leaves, want 4", trial, len(cl))
		}
		for i := 1; i < len(cl); i++ {
			if ids.Closer(key, cl[i].ID, cl[i-1].ID) {
				t.Fatalf("trial %d: ClosestLeaves not ordered by closeness", trial)
			}
		}

		// The globally second-closest node to the key is who the ring routes
		// to once the owner dies; it must lead the owner's replica set.
		second := -1
		for i := range c.nodes {
			if i == ownerIdx {
				continue
			}
			if second < 0 || ids.Closer(key, c.nodes[i].self.ID, c.nodes[second].self.ID) {
				second = i
			}
		}
		if cl[0].Addr != c.nodes[second].self.Addr {
			t.Fatalf("trial %d: ClosestLeaves[0]=%s, but the post-failure owner is %s",
				trial, cl[0].Addr, c.nodes[second].self.Addr)
		}
	}
}
