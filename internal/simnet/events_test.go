package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"totoro/internal/transport"
)

// A cancel handle kept past its timer's turn must not touch whatever event
// reuses the slot: the loop recycles an event before running it, so the very
// next schedule gets the same *event back.
func TestStaleCancelDoesNotHitRecycledEvent(t *testing.T) {
	net, _, _, ea, _ := twoNodes(t, Config{})
	var stale func()
	fired := 0
	stale = ea.After(time.Millisecond, func() {
		// The firing timer's slot is already free: this After reuses it.
		ea.After(time.Millisecond, func() { fired++ })
		stale()
	})
	net.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("the second timer fired %d times, want 1: a stale cancel handle hit the recycled event", fired)
	}

	// Same with the handle used after the loop moved on, and with a message
	// in the recycled slot.
	old := ea.After(time.Millisecond, func() {})
	net.RunUntilIdle()
	ea.Send("b", "x")
	old()
	before := net.Delivered()
	net.RunUntilIdle()
	if net.Delivered() != before+1 {
		t.Fatal("a stale cancel handle dropped the message that recycled its timer's event")
	}
}

// Whatever order events are scheduled in, they pop sorted by (at, seq): due
// time first, scheduling order among equals.
func TestRandomSchedulesPopInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		net := New(Config{})
		type key struct {
			at time.Duration
			n  int
		}
		var want, got []key
		count := 1 + rng.Intn(400)
		for i := 0; i < count; i++ {
			k := key{time.Duration(rng.Intn(50)) * time.Millisecond, i}
			want = append(want, k)
			net.ScheduleAfter(k.at, func() { got = append(got, key{net.Now(), k.n}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		// Interleave pops with further pushes, as a running simulation does.
		for i := 0; i < count/2; i++ {
			net.Step()
		}
		late := key{net.Now(), count}
		net.ScheduleAfter(0, func() { got = append(got, key{net.Now(), late.n}) })
		pos := sort.Search(len(want), func(i int) bool { return want[i].at > late.at })
		want = append(want[:pos], append([]key{late}, want[pos:]...)...)
		net.RunUntilIdle()
		if len(got) != len(want) {
			t.Fatalf("trial %d: ran %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d ran as %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// Cancelled timers at the head of the queue are not pending, do not count as
// steps, and do not stop Run from parking the clock on its deadline.
func TestCancelledHeadTimers(t *testing.T) {
	net, _, _, ea, _ := twoNodes(t, Config{})
	c1 := ea.After(1*time.Millisecond, func() { t.Error("cancelled timer 1 ran") })
	c2 := net.ScheduleAfter(2*time.Millisecond, func() { t.Error("cancelled timer 2 ran") })
	ran := 0
	ea.After(30*time.Millisecond, func() { ran++ })
	if got := net.Pending(); got != 3 {
		t.Fatalf("Pending=%d want 3", got)
	}
	c1()
	c2()
	c2() // cancelling twice is harmless
	if got := net.Pending(); got != 1 {
		t.Fatalf("Pending=%d want 1 after cancelling two", got)
	}
	if steps := net.Run(10 * time.Millisecond); steps != 0 {
		t.Fatalf("Run executed %d events before the deadline, want 0", steps)
	}
	if net.Now() != 10*time.Millisecond {
		t.Fatalf("clock=%v want the 10ms deadline", net.Now())
	}
	if steps := net.Run(time.Second); steps != 1 || ran != 1 {
		t.Fatalf("Run executed %d events (timer ran %d times), want 1/1", steps, ran)
	}
	if net.Now() != 30*time.Millisecond {
		t.Fatalf("clock=%v want 30ms: an idle queue leaves the clock on the last event", net.Now())
	}
	if net.Pending() != 0 || net.Step() {
		t.Fatal("queue not empty after the last event")
	}
}

// The lazily created source draws what the eagerly created one drew: same
// seed expression, generation included.
func TestLazyRandMatchesEagerSeed(t *testing.T) {
	const seed = 42
	net := New(Config{Seed: seed})
	env := net.AddNode("n7", func(transport.Env) transport.Handler {
		return transport.HandlerFunc(func(transport.Addr, any) {})
	})
	check := func(gen uint64) {
		t.Helper()
		want := rand.New(rand.NewSource(seed ^ int64(hashAddr("n7")) ^ int64(gen<<32)))
		for i := 0; i < 5; i++ {
			if got, w := env.Rand().Int63(), want.Int63(); got != w {
				t.Fatalf("generation %d draw %d: got %d, want %d", gen, i, got, w)
			}
		}
	}
	check(0)
	net.Restart("n7")
	check(1)
	net.Restart("n7")
	net.Restart("n7") // a generation nobody drew in still advances the seed
	check(3)
}

// In steady state a message — send, arrival, ingress queueing, dispatch —
// allocates nothing: events come from the free list and carry the message in
// fields, not in a closure.
func TestMessagePathDoesNotAllocate(t *testing.T) {
	net := New(Config{DefaultBandwidth: 1 << 20}) // a NIC, so ingress is its own event
	nop := func(transport.Env) transport.Handler {
		return transport.HandlerFunc(func(transport.Addr, any) {})
	}
	a := net.AddNode("a", nop)
	net.AddNode("b", nop)
	type ping struct{}
	burst := func() {
		for i := 0; i < 64; i++ {
			a.Send("b", ping{})
		}
		net.RunUntilIdle()
	}
	burst() // fill the free list and size the heap
	before := net.Delivered()
	if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
		t.Fatalf("a burst of 64 messages allocated %.0f times, want 0", allocs)
	}
	if net.Delivered() == before || net.Dropped() != 0 {
		t.Fatalf("delivered %d, dropped %d", net.Delivered()-before, net.Dropped())
	}
}
