package simnet

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"totoro/internal/transport"
)

// box is a transport.Recycler that awaits pending deliveries before it goes
// back, as a message sent to several receivers does. calls counts Recycle.
type box struct {
	pending, calls int
	back           bool
}

func (b *box) Recycle() {
	b.calls++
	if b.pending--; b.pending == 0 {
		b.back = true
	}
}

// recycleNet is a network of a sender "a" and receivers r0..r(k-1). Every
// delivery appends to *seen how many Recycle calls the box had had when its
// Receive ran.
func recycleNet(k int) (net *Network, a transport.Env, to []transport.Addr, seen *[]int) {
	net = New(Config{Seed: 3})
	a = net.AddNode("a", func(transport.Env) transport.Handler {
		return transport.HandlerFunc(func(transport.Addr, any) {})
	})
	seen = new([]int)
	for i := 0; i < k; i++ {
		addr := transport.Addr(fmt.Sprintf("r%d", i))
		to = append(to, addr)
		net.AddNode(addr, func(transport.Env) transport.Handler {
			return transport.HandlerFunc(func(_ transport.Addr, msg any) {
				*seen = append(*seen, msg.(*box).calls)
			})
		})
	}
	return net, a, to, seen
}

// A Recycler sent once is recycled exactly once, after Receive returns:
// handed off on arrival, and after waiting in a slow receiver's ingress
// queue.
func TestRecyclesOnceAfterItsOneDelivery(t *testing.T) {
	for _, slow := range []bool{false, true} {
		net, a, to, seen := recycleNet(1)
		if slow {
			net.SetBandwidth(to[0], 1000)
		}
		b := &box{pending: 1}
		a.Send(to[0], b)
		net.RunUntilIdle()
		if !slices.Equal(*seen, []int{0}) || b.calls != 1 || !b.back {
			t.Fatalf("slow=%v: Recycle calls seen by each Receive %v, %d in all, back=%v; want [0], 1, true", slow, *seen, b.calls, b.back)
		}
	}
}

// A box sent to k receivers goes back only after the k-th delivery.
func TestBoxGoesBackAfterTheLastDelivery(t *testing.T) {
	const k = 5
	net, a, to, seen := recycleNet(k)
	b := &box{pending: k}
	for _, addr := range to {
		a.Send(addr, b)
	}
	for net.Step() {
		if b.back != (len(*seen) == k) {
			t.Fatalf("after %d of %d deliveries back=%v", len(*seen), k, b.back)
		}
	}
	if !slices.Equal(*seen, []int{0, 1, 2, 3, 4}) || b.calls != k {
		t.Fatalf("Recycle calls seen by each Receive %v, %d in all; want [0 1 2 3 4], %d", *seen, b.calls, k)
	}
}

// A message the network does not deliver exactly once is never recycled:
// both copies of a dup'd send, a LinkRule drop, a partition, a dead
// destination, one that was down when the message arrived and rebooted after,
// and one that crashed while the message waited in its ingress queue.
func TestNeverRecyclesWhatIsNotDeliveredOnce(t *testing.T) {
	cases := []struct {
		name       string
		deliveries int
		fault      func(net *Network, a transport.Env, to transport.Addr)
	}{
		{"dup", 2, func(net *Network, _ transport.Env, _ transport.Addr) { net.AddLinkRule(LinkRule{Dup: 1}) }},
		{"drop", 0, func(net *Network, _ transport.Env, _ transport.Addr) { net.AddLinkRule(LinkRule{Drop: 1}) }},
		{"partition", 0, func(net *Network, _ transport.Env, to transport.Addr) {
			net.Partition([]transport.Addr{"a"}, []transport.Addr{to})
		}},
		{"dead", 0, func(net *Network, _ transport.Env, to transport.Addr) { net.Fail(to) }},
		{"restarted", 0, func(net *Network, a transport.Env, to transport.Addr) {
			// Down when the message arrives (after 1 ms), rebooted after.
			net.Fail(to)
			a.After(100*time.Millisecond, func() { net.Restart(to) })
		}},
		{"died queued", 0, func(net *Network, a transport.Env, to transport.Addr) {
			// At 100 B/s the message clears to's ingress queue after about
			// 0.6 s; to crashes while it waits.
			net.SetBandwidth(to, 100)
			a.After(100*time.Millisecond, func() { net.Fail(to) })
		}},
	}
	for _, c := range cases {
		net, a, to, seen := recycleNet(1)
		c.fault(net, a, to[0])
		b := &box{pending: 1}
		a.Send(to[0], b)
		net.RunUntilIdle()
		if len(*seen) != c.deliveries || b.calls != 0 {
			t.Errorf("%s: %d deliveries, %d Recycle calls; want %d and 0", c.name, len(*seen), b.calls, c.deliveries)
		}
	}
}
