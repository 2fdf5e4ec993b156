package pubsub

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// soloEnv is the Env of a pub/sub node driven by hand: sends and timers are
// recorded instead of performed, so a test feeds the node one message at a
// time and reads what it would have put on the wire.
type soloEnv struct {
	reg *obs.Registry
	// record keeps what is sent. Off (for allocation counts), a send is
	// delivered and done with at once: a transport.Recycler goes back to its
	// sender's free list, as simnet hands it back after the delivery.
	record bool
	sent   []soloSend
	timers []*soloTimer
}

type soloTimer struct{ fn func() } // nil once cancelled or fired

type soloSend struct {
	to  transport.Addr
	msg any
}

func (e *soloEnv) Self() transport.Addr   { return soloAddr }
func (e *soloEnv) Now() time.Duration     { return 0 }
func (e *soloEnv) Rand() *rand.Rand       { return nil }
func (e *soloEnv) Metrics() *obs.Registry { return e.reg }

func (e *soloEnv) Send(to transport.Addr, msg any) {
	if e.record {
		e.sent = append(e.sent, soloSend{to, msg})
		return
	}
	// A switch on the concrete types, not an assertion to transport.Recycler:
	// the runtime caches an assertion to an interface at its site the first
	// time a random draw (about one in a thousand) says so, and that cache is
	// a heap allocation the allocation pins would count.
	switch m := msg.(type) {
	case *Upstream:
		m.Recycle()
	case *Multicast:
		m.Recycle()
	}
}

func (e *soloEnv) After(_ time.Duration, fn func()) (cancel func()) {
	t := &soloTimer{fn}
	e.timers = append(e.timers, t)
	return func() { t.fn = nil }
}

// fire runs every timer armed and not cancelled so far.
func (e *soloEnv) fire() {
	due := e.timers
	e.timers = nil
	for _, t := range due {
		if fn := t.fn; fn != nil {
			t.fn = nil
			fn()
		}
	}
}

// take returns the sends recorded since the last call.
func (e *soloEnv) take() []soloSend {
	out := e.sent
	e.sent = nil
	return out
}

const soloAddr = transport.Addr("solo")

// newSolo builds a pub/sub node on a ring of one: every key routes to the
// node itself, so Create and Publish land locally and nothing else moves
// unless the test sends it.
func newSolo(cfg Config, record bool) (*Node, *soloEnv) {
	env := &soloEnv{reg: obs.New(0), record: record}
	rn := ring.New(env, ring.Contact{ID: ids.Hash(string(soloAddr)), Addr: soloAddr}, ring.Config{B: 4})
	return New(env, rn, cfg), env
}

func contact(i int) ring.Contact {
	a := fmt.Sprintf("c%03d", i)
	return ring.Contact{ID: ids.Hash(a), Addr: transport.Addr(a)}
}

func checkChildrenSorted(t *testing.T, what string, st *topicState) {
	t.Helper()
	for i := 1; i < len(st.children); i++ {
		if st.children[i-1].Addr >= st.children[i].Addr {
			t.Fatalf("after %s: children[%d]=%s does not sort before children[%d]=%s", what,
				i-1, st.children[i-1].Addr, i, st.children[i].Addr)
		}
	}
}

func childAddrs(st *topicState) []transport.Addr {
	out := make([]transport.Addr, len(st.children))
	for i, c := range st.children {
		out[i] = c.Addr
	}
	return out
}

// TestChildrenStaySortedAndUnique drives one root through seeded random
// joins (with and without the fanout cap pushing them down), leaves, cap
// reductions, missed-round prunes and disowns. Whatever the order, children
// is strictly ascending by address — which also means duplicate-free — and
// holds exactly the members a plain set would.
func TestChildrenStaySortedAndUnique(t *testing.T) {
	const pool = 40
	var pushedDown, evicted, pruned int // the test must reach what it is about
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, env := newSolo(Config{AggTimeout: time.Second}, true)
		topic := ids.Hash(fmt.Sprint("app-children-", seed))
		fanout := 0 // the owner's cap; 0 = none
		want := map[transport.Addr]bool{}
		n.CreateWithConfig(topic, TreeConfig{})
		round := 0
		for step := 0; step < 150; step++ {
			st := n.state(topic)
			var what string
			switch op := rng.Intn(100); {
			case op < 45:
				c := contact(rng.Intn(pool))
				what = "join " + string(c.Addr)
				env.take()
				n.Receive(c.Addr, JoinMsg{Topic: topic, Subscriber: c})
				switch {
				case want[c.Addr] || fanout == 0 || len(want) < fanout:
					want[c.Addr] = true
				default: // full: pushed down to a child, not adopted
					sent := env.take()
					if len(sent) != 1 || !want[sent[0].to] {
						t.Fatalf("seed %d step %d: %s into a full node sent %v, want one JoinMsg to a child", seed, step, what, sent)
					}
					pushedDown++
				}
			case op < 65:
				c := contact(rng.Intn(pool))
				what = "leave " + string(c.Addr)
				n.Receive(c.Addr, LeaveMsg{Topic: topic, Child: c})
				delete(want, c.Addr)
			case op < 75:
				// A changed owner config re-enforces the cap: the surplus is
				// pushed down to siblings.
				fanout = 1 + rng.Intn(6)
				what = fmt.Sprint("fanout cap ", fanout)
				before := childAddrs(st)
				n.CreateWithConfig(topic, TreeConfig{MaxFanout: fanout})
				if len(st.children) != min(len(before), fanout) {
					t.Fatalf("seed %d step %d: %s left %d of %d children", seed, step, what, len(st.children), len(before))
				}
				for a := range want {
					if _, kept := childIndex(st.children, a); !kept {
						delete(want, a)
						evicted++
					}
				}
			case op < 90:
				// Two rounds in which a random subset stays silent until the
				// deadline: the silent ones are pruned after the second.
				silent := map[transport.Addr]bool{}
				for _, c := range st.children {
					if rng.Intn(3) == 0 {
						silent[c.Addr] = true
					}
				}
				what = fmt.Sprint("two rounds without ", len(silent), " children")
				for i := 0; i < childMissLimit; i++ {
					round++
					n.SubmitUpdate(topic, round, nil)
					for _, c := range st.children {
						if !silent[c.Addr] {
							n.Receive(c.Addr, Upstream{Topic: topic, Round: round, From: c, Epoch: st.mcEpoch, Seq: uint64(round)})
						}
					}
					env.fire()
				}
				for a := range silent {
					delete(want, a)
					pruned++
				}
			case op < 95:
				what = "disown"
				n.Subscribe(topic) // a subscribed root re-joins, so the topic survives
				n.Disown(topic)
				clear(want)
			default:
				what = "duplicate join"
				if len(st.children) > 0 {
					c := st.children[rng.Intn(len(st.children))]
					n.Receive(c.Addr, JoinMsg{Topic: topic, Subscriber: c})
				}
			}
			st = n.state(topic)
			checkChildrenSorted(t, fmt.Sprintf("seed %d step %d: %s", seed, step, what), st)
			if len(st.children) != len(want) {
				t.Fatalf("seed %d step %d: after %s children are %v, want the %d of %v", seed, step, what, childAddrs(st), len(want), want)
			}
			for _, c := range st.children {
				if !want[c.Addr] {
					t.Fatalf("seed %d step %d: after %s %s is a child and should not be", seed, step, what, c.Addr)
				}
			}
		}
	}
	if pushedDown == 0 || evicted == 0 || pruned == 0 {
		t.Fatalf("%d joins pushed down, %d children evicted by a lowered cap, %d pruned for silence: each must happen", pushedDown, evicted, pruned)
	}
	t.Logf("%d joins pushed down, %d children evicted by a lowered cap, %d pruned for silence", pushedDown, evicted, pruned)
}

// TestChildrenCopyOnWrite: a loop ranging over children sees the children
// it started with, each once, whatever it adds or removes on the way —
// enforceFanout and the keep-alive and multicast fan-outs rely on it.
func TestChildrenCopyOnWrite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(st *topicState, i int, cur ring.Contact)
		left   int
	}{
		{"remove the current child", func(st *topicState, _ int, cur ring.Contact) { st.removeChild(cur.Addr) }, 0},
		{"remove the next child", func(st *topicState, i int, _ ring.Contact) { st.removeChild(contact(i + 1).Addr) }, 1},
		{"remove the previous child", func(st *topicState, i int, _ ring.Contact) { st.removeChild(contact(i - 1).Addr) }, 1},
		{"insert before the current child", func(st *topicState, i int, _ ring.Contact) {
			st.setChild(ring.Contact{Addr: transport.Addr(fmt.Sprintf("b%03d", i))})
		}, 24},
		{"set the current child again", func(st *topicState, _ int, cur ring.Contact) { st.setChild(cur) }, 12},
	} {
		st := &topicState{}
		for _, i := range rand.New(rand.NewSource(5)).Perm(12) {
			st.setChild(contact(i))
		}
		start := childAddrs(st)
		var visited []transport.Addr
		for i, c := range st.children {
			visited = append(visited, c.Addr)
			tc.mutate(st, i, c)
		}
		if !slices.Equal(visited, start) {
			t.Errorf("%s: visited %v, want %v", tc.name, visited, start)
		}
		checkChildrenSorted(t, tc.name, st)
		if len(st.children) != tc.left {
			t.Errorf("%s: %d children left, want %d", tc.name, len(st.children), tc.left)
		}
	}
}

// TestDeletedTopicIsNotServedFromTheCache: state() remembers the last topic
// it returned; once maybeLeave has deleted that topic, the next message for
// it must build fresh state rather than revive the deleted one.
func TestDeletedTopicIsNotServedFromTheCache(t *testing.T) {
	n, env := newSolo(Config{}, true)
	topic := ids.Hash("app-resubscribe")
	parent := contact(1)
	n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
	n.Subscribe(topic)
	n.Receive(parent.Addr, Multicast{Topic: topic, Seq: 1, Depth: 1, Object: "v1"})
	old := n.state(topic)
	if !old.subscribed || old.parent != parent || old.mcLast != 1 {
		t.Fatalf("member state = %+v", old)
	}

	env.take()
	n.Unsubscribe(topic)
	if sent := env.take(); len(sent) != 1 || sent[0].msg != (LeaveMsg{Topic: topic, Child: n.ring.Self()}) {
		t.Fatalf("unsubscribing a leaf sent %v, want one LeaveMsg", sent)
	}
	if _, ok := n.TreeInfo(topic); ok {
		t.Fatal("topic still there after its last role ended")
	}

	n.Receive(parent.Addr, Multicast{Topic: topic, Seq: 7, Depth: 1, Object: "v7"})
	fresh := n.topics[topic]
	if fresh == nil || fresh == old {
		t.Fatalf("a message for a deleted topic landed in %p (deleted state %p)", fresh, old)
	}
	if fresh != n.state(topic) || fresh.subscribed || !fresh.parent.IsZero() || fresh.mcLast != 7 {
		t.Fatalf("fresh state = %+v", fresh)
	}
	if old.mcLast != 1 {
		t.Fatalf("the deleted state was written to: mcLast = %d", old.mcLast)
	}
}
