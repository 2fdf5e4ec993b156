package pubsub

import (
	"testing"

	"totoro/internal/ids"
	"totoro/internal/transport"
)

// TestForwardedMulticastComesBackAfterTheLastChild: every child is sent the
// same envelope; it goes back to the member's free list after the last
// child's delivery, without its object, and carries the member's next
// forward.
func TestForwardedMulticastComesBackAfterTheLastChild(t *testing.T) {
	const k = 3
	n, env := newSolo(Config{}, true)
	topic := ids.Hash("app-envelope-multicast")
	parent := contact(0)
	n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
	for i := 1; i <= k; i++ {
		n.Receive(contact(i).Addr, JoinMsg{Topic: topic, Subscriber: contact(i)})
	}
	env.take()

	n.Receive(parent.Addr, &Multicast{Topic: topic, Seq: 1, Depth: 1, Object: "v1"})
	sent := env.take()
	box, _ := sent[0].msg.(*Multicast)
	if len(sent) != k || box == nil || box.Depth != 2 || box.Object != "v1" {
		t.Fatalf("forwarding sent %+v", sent)
	}
	for i, s := range sent {
		if s.msg != any(box) {
			t.Fatalf("child %d was sent %p, child 0 %p: want one envelope", i, s.msg, box)
		}
		if n.mcFree != nil {
			t.Fatalf("the envelope came back after %d of %d deliveries", i, k)
		}
		s.msg.(transport.Recycler).Recycle()
	}
	if n.mcFree != box || box.Object != recycledMulticast.Object {
		t.Fatalf("after the last delivery the free list holds %p (envelope %p, object %v)", n.mcFree, box, box.Object)
	}

	n.Receive(parent.Addr, Multicast{Topic: topic, Seq: 2, Depth: 1, Object: "v2"})
	if again := env.take(); again[0].msg != any(box) || box.Seq != 2 || box.Object != "v2" || n.mcFree != nil {
		t.Fatalf("the next forward sent %p (seq %d), not the envelope that came back", again[0].msg, box.Seq)
	}
}

// TestUpstreamComesBackOnlyAfterOneDelivery: an Upstream's envelope goes back
// after its one delivery and carries the next round's; one that is never
// handed back (a duplicated or lost send) leaves the next round a new one.
func TestUpstreamComesBackOnlyAfterOneDelivery(t *testing.T) {
	n, env := newSolo(Config{}, true)
	topic := ids.Hash("app-envelope-upstream")
	parent := contact(0)
	n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
	env.take()
	send := func(round int) *Upstream {
		t.Helper()
		n.SubmitUpdate(topic, round, round)
		sent := env.take()
		up, _ := sent[0].msg.(*Upstream)
		if len(sent) != 1 || up == nil || up.Round != round || up.Object != round {
			t.Fatalf("round %d sent %+v", round, sent)
		}
		return up
	}
	first := send(1)
	first.Recycle()
	if n.upFree != first {
		t.Fatal("a delivered Upstream did not come back")
	}
	if second := send(2); second != first {
		t.Fatal("round 2 did not reuse the envelope that came back")
	}
	if third := send(3); third == first || n.upFree != nil {
		t.Fatal("round 3 reused an envelope still in flight")
	}
}
