package pubsub

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// lossyForest builds a forest over a clean network that a test makes lossy
// with a LinkRule after construction (joins happen over a clean network; the
// loss applies to the broadcast phase, as on a wireless edge that degrades).
func lossyForest(t *testing.T, n int, seed int64) *forest {
	t.Helper()
	f := &forest{
		net:        simnet.New(simnet.Config{Seed: seed, Latency: simnet.ConstLatency(2 * time.Millisecond)}),
		byAddr:     make(map[transport.Addr]*stack),
		rng:        rand.New(rand.NewSource(seed)),
		delivered:  make(map[transport.Addr][]any),
		aggregates: make(map[string][]aggResult),
	}
	var ringNodes []*ring.Node
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("n%d", i))
		id := ids.Random(f.rng)
		s := &stack{}
		f.net.AddNode(addr, func(e transport.Env) transport.Handler {
			s.ring = ring.New(e, ring.Contact{ID: id, Addr: addr}, ring.Config{B: 4})
			s.ps = New(e, s.ring, Config{
				KeepAliveInterval: 50 * time.Millisecond,
				KeepAliveTimeout:  10 * time.Second, // no repair churn in this test
			})
			s.ps.SetHandlers(Handlers{
				OnDeliver: func(topic ids.ID, obj any, depth int, subscriber bool) {
					if subscriber {
						f.delivered[addr] = append(f.delivered[addr], obj)
					}
				},
			})
			return s
		})
		f.stacks = append(f.stacks, s)
		f.byAddr[addr] = s
		ringNodes = append(ringNodes, s.ring)
	}
	ring.BuildStatic(ringNodes, f.rng)
	return f
}

// TestReliableMulticastUnderLoss drops 25% of all frames during a burst of
// broadcasts; nack-based retransmission (driven by later multicasts and
// keep-alive heartbeats) must still deliver every broadcast to every
// subscriber.
func TestReliableMulticastUnderLoss(t *testing.T) {
	f := lossyForest(t, 200, 91)
	topic := ids.Hash("app-reliable")
	var subs []*stack
	seen := map[transport.Addr]bool{}
	for len(subs) < 60 {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		if seen[s.ring.Self().Addr] {
			continue
		}
		seen[s.ring.Self().Addr] = true
		s.ps.Subscribe(topic)
		subs = append(subs, s)
	}
	f.net.Run(f.net.Now() + 300*time.Millisecond)

	var root *stack
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(topic); ok && info.IsRoot {
			root = s
		}
	}
	if root == nil {
		t.Fatal("no root")
	}

	heal := f.net.AddLinkRule(simnet.LinkRule{Drop: 0.25})
	const bursts = 12
	for i := 0; i < bursts; i++ {
		root.ps.Publish(topic, fmt.Sprintf("model-v%d", i))
		f.net.Run(f.net.Now() + 30*time.Millisecond)
	}
	// Heartbeats + nacks repair the tail.
	heal()
	f.net.Run(f.net.Now() + 2*time.Second)

	for _, s := range subs {
		got := f.delivered[s.ring.Self().Addr]
		if len(got) != bursts {
			t.Fatalf("subscriber %s received %d of %d broadcasts: %v",
				s.ring.Self().Addr, len(got), bursts, got)
		}
		distinct := map[any]bool{}
		for _, g := range got {
			distinct[g] = true
		}
		if len(distinct) != bursts {
			t.Fatalf("subscriber %s saw duplicates: %v", s.ring.Self().Addr, got)
		}
	}
}

// TestLateJoinerCatchesUpToLatestModel verifies the keep-alive catch-up: a
// node that subscribes after broadcasts were published receives the newest
// one (the current global model) without replaying history.
func TestLateJoinerCatchesUpToLatestModel(t *testing.T) {
	f := lossyForest(t, 120, 92)
	topic := ids.Hash("app-catchup")
	for i := 0; i < 20; i++ {
		f.stacks[i].ps.Subscribe(topic)
	}
	f.net.Run(f.net.Now() + 300*time.Millisecond)
	var root *stack
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(topic); ok && info.IsRoot {
			root = s
		}
	}
	for i := 0; i < 5; i++ {
		root.ps.Publish(topic, fmt.Sprintf("v%d", i))
	}
	f.net.Run(f.net.Now() + 200*time.Millisecond)

	late := f.stacks[100]
	late.ps.Subscribe(topic)
	f.net.Run(f.net.Now() + 1*time.Second)

	got := f.delivered[late.ring.Self().Addr]
	if len(got) == 0 {
		t.Fatal("late joiner never caught up")
	}
	last := got[len(got)-1]
	if last != "v4" {
		t.Fatalf("late joiner caught up to %v want v4", last)
	}
	if len(got) > 2 {
		t.Fatalf("late joiner replayed too much history: %v", got)
	}
}

// TestDuplicateMulticastSuppressed sends the same multicast twice directly;
// the subscriber must deliver once.
func TestDuplicateMulticastSuppressed(t *testing.T) {
	f := lossyForest(t, 60, 93)
	topic := ids.Hash("app-dup")
	s := f.stacks[5]
	s.ps.Subscribe(topic)
	f.net.Run(f.net.Now() + 200*time.Millisecond)
	m := Multicast{Topic: topic, Seq: 9, Depth: 1, Object: "once"}
	s.ps.Receive("tester", m)
	s.ps.Receive("tester", m)
	if got := f.delivered[s.ring.Self().Addr]; len(got) != 1 {
		t.Fatalf("delivered %d times", len(got))
	}
}

// TestNackRetransmitsEachSequenceOnce: a parent serves an honest nack —
// strictly ascending, at most mcCacheSize entries — exactly as asked, but
// resends a cached sequence at most once per nack and reads no more than
// mcCacheSize entries. What it refuses is counted in pubsub.rejected_nacks,
// which a parent that refuses nothing does not list.
func TestNackRetransmitsEachSequenceOnce(t *testing.T) {
	n, env := newSolo(Config{}, true)
	topic := ids.Hash("app-nack")
	kid := contact(1)
	n.CreateWithConfig(topic, TreeConfig{})
	n.Receive(kid.Addr, JoinMsg{Topic: topic, Subscriber: kid})
	const last = 20 // the cache holds sequences 5..20
	for i := 1; i <= last; i++ {
		n.Publish(topic, i)
	}
	seqs := func(from, to uint64) []uint64 {
		var s []uint64
		for seq := from; seq <= to; seq++ {
			s = append(s, seq)
		}
		return s
	}
	rejected := int64(0)
	for _, tc := range []struct {
		what            string
		missing, resent []uint64
		rejected        int64
	}{
		{"an honest nack", seqs(last-mcCacheSize+1, last), seqs(last-mcCacheSize+1, last), 0},
		{"a nack reaching behind the cache", seqs(1, 7), seqs(5, 7), 0},
		{"one sequence named 10 000 times", slices.Repeat([]uint64{last}, 10_000), []uint64{last}, 9_999},
		{"repeats", []uint64{19, 20, 19, 20}, []uint64{19, 20}, 2},
		{"one entry too many", seqs(last-mcCacheSize, last), seqs(last-mcCacheSize+1, last-1), 1},
	} {
		env.take()
		n.Receive(kid.Addr, McNack{Topic: topic, Child: kid, Missing: tc.missing})
		var resent []uint64
		for _, s := range env.take() {
			mc, ok := s.msg.(Multicast)
			if !ok || s.to != kid.Addr || mc.Object != int(mc.Seq) {
				t.Fatalf("%s: sent %#v to %s, want retransmissions to the child", tc.what, s.msg, s.to)
			}
			resent = append(resent, mc.Seq)
		}
		rejected += tc.rejected
		got, listed := n.env.Metrics().Snapshot().Counters["pubsub.rejected_nacks"]
		if !slices.Equal(resent, tc.resent) || got != rejected || listed != (rejected > 0) {
			t.Fatalf("%s: resent %v, rejected_nacks %d (listed %v); want %v and %d in total",
				tc.what, resent, got, listed, tc.resent, rejected)
		}
	}
}

// mapWindow is the delivery bookkeeping as recordMulticast, handleWelcome
// and handleKeepAlive kept it before the 64-bit window: a set of delivered
// sequences, pruned end to end on every delivery. It lives on as the oracle
// the window must agree with — verdict for verdict, NACK for NACK.
type mapWindow struct {
	epoch, last, base uint64
	seen              map[uint64]bool
	cache             []Multicast
}

func (o *mapWindow) advance(epoch uint64) bool {
	if epoch > o.epoch {
		*o = mapWindow{epoch: epoch}
	}
	return epoch >= o.epoch
}

// record is a member's recordMulticast: whether m is new, and the sequences
// it asks its parent to resend.
func (o *mapWindow) record(m Multicast) (fresh bool, nack []uint64) {
	if !o.advance(m.Epoch) || o.seen[m.Seq] {
		return false, nil
	}
	if o.seen == nil {
		o.seen = make(map[uint64]bool)
		o.cache = make([]Multicast, mcCacheSize)
	}
	o.seen[m.Seq] = true
	if m.Seq > o.last {
		if o.base == 0 {
			o.base = m.Seq
		}
		if o.last > 0 {
			for s := o.last + 1; s < m.Seq && len(nack) < mcCacheSize; s++ {
				if !o.seen[s] {
					nack = append(nack, s)
				}
			}
		}
		o.last = m.Seq
	}
	if m.Seq+mcCacheSize > o.last {
		o.cache[m.Seq%mcCacheSize] = m
	}
	for s := range o.seen {
		if s+4*mcCacheSize <= o.last {
			delete(o.seen, s)
		}
	}
	return true, nack
}

func (o *mapWindow) welcome(epoch, lastSeq uint64) {
	if epoch > o.epoch {
		o.advance(epoch)
		o.base = lastSeq + 1
	}
	if o.base == 0 {
		o.base = lastSeq + 1
	}
}

// keepAlive is the catch-up scan of handleKeepAlive.
func (o *mapWindow) keepAlive(epoch, lastSeq uint64) (nack []uint64) {
	switch {
	case lastSeq == 0 || epoch < o.epoch:
		return nil
	case epoch > o.epoch || o.last == 0 && o.base > lastSeq:
		return []uint64{lastSeq}
	}
	from := uint64(1)
	if lastSeq > mcCacheSize {
		from = lastSeq - mcCacheSize + 1
	}
	for s := max(from, o.base); s <= lastSeq; s++ {
		if !o.seen[s] {
			nack = append(nack, s)
		}
	}
	return nack
}

func (o *mapWindow) cached(seq uint64) (Multicast, bool) {
	if o.cache == nil || seq == 0 || seq+mcCacheSize <= o.last {
		return Multicast{}, false
	}
	mc := o.cache[seq%mcCacheSize]
	return mc, mc.Seq == seq
}

// TestDeliveryWindowMatchesTheMap feeds one member seeded random streams —
// in order, across gaps narrower and wider than the window, duplicates
// inside it, re-arrivals from behind it, new and stale epochs, and welcomes
// and keep-alives that name sequences it has not reached — and holds the
// window to the map's answers after every message: the same new/duplicate
// verdict, the same McNack, the same stream state, and the same delivered
// and cached reading for every sequence around the head.
func TestDeliveryWindowMatchesTheMap(t *testing.T) {
	const streams, steps = 10_000, 40
	n, env := newSolo(Config{}, true)
	delivered := 0
	n.SetHandlers(Handlers{OnDeliver: func(ids.ID, any, int, bool) { delivered++ }})
	parent := contact(1)
	var inOrder, narrowGap, wideGap, dupes, holesFilled, fromBehind, epochs, stale, caughtUp int
	for stream := 0; stream < streams; stream++ {
		rng := rand.New(rand.NewSource(int64(stream)))
		topic := ids.ID{Hi: 0x77696e646f77, Lo: uint64(stream)}
		o := &mapWindow{}
		for step := 0; step < steps; step++ {
			var (
				msg  any // what the member receives this step
				want []uint64
			)
			env.take()
			before := delivered
			fresh := false
			switch r := rng.Intn(100); {
			case step == 0 || r < 8:
				epoch, lastSeq := o.epoch+uint64(rng.Intn(3)/2), uint64(rng.Intn(300))
				o.welcome(epoch, lastSeq)
				msg = Welcome{Topic: topic, Parent: parent, Epoch: epoch, LastSeq: lastSeq}
			case r < 20:
				epoch := o.epoch
				switch rng.Intn(10) {
				case 0:
					epoch++
				case 1:
					epoch = max(epoch, 1) - 1
				}
				lastSeq := []uint64{0, o.last, o.last - min(o.last, uint64(rng.Intn(80))), o.last + 1 + uint64(rng.Intn(40))}[rng.Intn(4)]
				want = o.keepAlive(epoch, lastSeq)
				if epoch == o.epoch && lastSeq > o.last && len(want) > 0 {
					caughtUp++
				}
				msg = KeepAlive{Topic: topic, Parent: parent, Epoch: epoch, LastSeq: lastSeq}
			default:
				mc := Multicast{Topic: topic, Epoch: o.epoch, Depth: 1}
				switch {
				case r < 50:
					mc.Seq = o.last + 1
					inOrder++
				case r < 62:
					mc.Seq = o.last + 2 + uint64(rng.Intn(mcWindowBits-2))
					narrowGap++
				case r < 67:
					mc.Seq = o.last + mcWindowBits + uint64(rng.Intn(200))
					wideGap++
				case r < 82: // inside the window: a duplicate, or a hole being filled
					mc.Seq = o.last - min(o.last, uint64(rng.Intn(mcWindowBits)))
					if o.seen[mc.Seq] {
						dupes++
					} else {
						holesFilled++
					}
				case r < 90: // behind the window: forgotten, so new again
					mc.Seq = o.last - min(o.last, mcWindowBits+uint64(rng.Intn(100)))
					if mc.Seq+mcWindowBits <= o.last {
						fromBehind++
					}
				case r < 95:
					mc.Epoch, mc.Seq = o.epoch+1, 1+uint64(rng.Intn(5))
					epochs++
				default:
					mc.Epoch, mc.Seq = max(o.epoch, 1)-1, o.last+1
					if mc.Epoch < o.epoch {
						stale++
					}
				}
				mc.Object = [2]uint64{mc.Epoch, mc.Seq}
				fresh, want = o.record(mc)
				msg = mc
			}
			n.Receive(parent.Addr, msg)
			at := func() string { return fmt.Sprintf("stream %d step %d: %+v", stream, step, msg) }
			if got := delivered - before; got > 1 || (got == 1) != fresh {
				t.Fatalf("%s: delivered %d times, the map says new=%v", at(), got, fresh)
			}
			var got []uint64
			for _, s := range env.take() {
				nack, ok := s.msg.(McNack)
				if !ok || s.to != parent.Addr || got != nil || len(nack.Missing) == 0 {
					t.Fatalf("%s: sent %+v to %s", at(), s.msg, s.to)
				}
				got = nack.Missing
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: McNack.Missing = %v, the map asks for %v", at(), got, want)
			}
			st := n.state(topic)
			if st.mcEpoch != o.epoch || st.mcLast != o.last || st.mcBase != o.base {
				t.Fatalf("%s: epoch/last/base = %d/%d/%d, the map has %d/%d/%d", at(), st.mcEpoch, st.mcLast, st.mcBase, o.epoch, o.last, o.base)
			}
			for s := o.last - min(o.last, mcWindowBits+8); s <= o.last+2; s++ {
				if st.mcDelivered(s) != o.seen[s] {
					t.Fatalf("%s: delivered(%d) = %v, the map says %v (head %d)", at(), s, st.mcDelivered(s), o.seen[s], o.last)
				}
				gotMC, gotOK := st.cached(s)
				wantMC, wantOK := o.cached(s)
				if gotOK != wantOK || gotOK && gotMC != wantMC {
					t.Fatalf("%s: cached(%d) = %+v, %v; the map's cache has %+v, %v", at(), s, gotMC, gotOK, wantMC, wantOK)
				}
			}
		}
	}
	t.Logf("%d in order, %d across a gap < %d, %d across a wider one, %d duplicates, %d holes filled, %d from behind the window, %d new epochs, %d stale, %d keep-alive catch-ups",
		inOrder, narrowGap, mcWindowBits, wideGap, dupes, holesFilled, fromBehind, epochs, stale, caughtUp)
	for _, c := range []int{inOrder, narrowGap, wideGap, dupes, holesFilled, fromBehind, epochs, stale, caughtUp} {
		if c < streams/10 {
			t.Fatal("a kind of arrival the test is about hardly happened; see the counts above")
		}
	}
}
