package pubsub

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// stack couples one ring node and one pub/sub node as a single handler.
type stack struct {
	ring *ring.Node
	ps   *Node
}

func (s *stack) Receive(from transport.Addr, msg any) {
	if _, ok := msg.(ring.Message); ok {
		s.ring.Receive(from, msg)
		return
	}
	s.ps.Receive(from, msg)
}

type forest struct {
	net    *simnet.Network
	stacks []*stack
	byAddr map[transport.Addr]*stack
	rng    *rand.Rand

	delivered  map[transport.Addr][]any // multicasts seen per node
	aggregates map[string][]aggResult   // topic+round -> root results
}

type aggResult struct {
	obj   any
	count int
}

func newForest(t testing.TB, n int, rcfg ring.Config, pcfg Config, seed int64) *forest {
	t.Helper()
	f := &forest{
		net:        simnet.New(simnet.Config{Seed: seed}),
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
			s.ring = ring.New(e, ring.Contact{ID: id, Addr: addr}, rcfg)
			s.ps = New(e, s.ring, pcfg)
			s.ps.SetHandlers(Handlers{
				OnDeliver: func(topic ids.ID, obj any, depth int, subscriber bool) {
					if subscriber {
						f.delivered[addr] = append(f.delivered[addr], obj)
					}
				},
				Combine: func(topic ids.ID, a, b any) any { return a.(int) + b.(int) },
				OnAggregate: func(topic ids.ID, round int, obj any, count int) {
					k := fmt.Sprintf("%s/%d", topic, round)
					f.aggregates[k] = append(f.aggregates[k], aggResult{obj: obj, count: count})
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

// attachedMembers returns every stack holding attached state for topic.
func (f *forest) attachedMembers(topic ids.ID) []*stack {
	var out []*stack
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(topic); ok && info.Attached {
			out = append(out, s)
		}
	}
	return out
}

// verifyTree checks the topic tree is rooted, connected, and acyclic.
func (f *forest) verifyTree(t *testing.T, topic ids.ID, subscribers []*stack) *stack {
	t.Helper()
	var root *stack
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(topic); ok && info.IsRoot {
			if root != nil {
				t.Fatalf("two roots for topic %s", topic)
			}
			root = s
		}
	}
	if root == nil {
		t.Fatalf("no root for topic %s", topic)
	}
	for _, s := range subscribers {
		seen := map[transport.Addr]bool{}
		cur := s
		for hops := 0; ; hops++ {
			info, ok := cur.ps.TreeInfo(topic)
			if !ok || !info.Attached {
				t.Fatalf("subscriber %s detached from topic", cur.ring.Self().Addr)
			}
			if info.IsRoot {
				break
			}
			if hops > len(f.stacks) {
				t.Fatal("parent chain too long (cycle?)")
			}
			if seen[cur.ring.Self().Addr] {
				t.Fatal("cycle in tree")
			}
			seen[cur.ring.Self().Addr] = true
			next, ok := f.byAddr[info.Parent.Addr]
			if !ok {
				t.Fatalf("unknown parent %s", info.Parent.Addr)
			}
			cur = next
		}
	}
	return root
}

func TestSubscribeFormsRootedTree(t *testing.T) {
	f := newForest(t, 300, ring.Config{B: 4}, Config{}, 1)
	topic := ids.Hash("app-activity-recognition")
	var subs []*stack
	for i := 0; i < 120; i++ {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		s.ps.Subscribe(topic)
		subs = append(subs, s)
	}
	f.net.RunUntilIdle()
	root := f.verifyTree(t, topic, subs)
	// The root must be the rendezvous node: numerically closest to topic.
	best := f.stacks[0]
	for _, s := range f.stacks[1:] {
		if ids.Closer(topic, s.ring.Self().ID, best.ring.Self().ID) {
			best = s
		}
	}
	if root != best {
		t.Fatalf("root %s is not the rendezvous node %s",
			root.ring.Self().Addr, best.ring.Self().Addr)
	}
}

func TestBroadcastReachesAllSubscribersOnce(t *testing.T) {
	f := newForest(t, 250, ring.Config{B: 4}, Config{}, 2)
	topic := ids.Hash("app-fitness")
	subs := map[transport.Addr]*stack{}
	for len(subs) < 80 {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		subs[s.ring.Self().Addr] = s
		s.ps.Subscribe(topic)
	}
	f.net.RunUntilIdle()
	// Publish from a random non-root member.
	var pub *stack
	for _, s := range subs {
		pub = s
		break
	}
	pub.ps.Publish(topic, "model-v1")
	f.net.RunUntilIdle()
	for addr := range subs {
		if got := f.delivered[addr]; len(got) != 1 || got[0] != "model-v1" {
			t.Fatalf("subscriber %s got %v", addr, got)
		}
	}
	// Non-subscribers (pure forwarders included) must not deliver upcalls.
	for _, s := range f.stacks {
		addr := s.ring.Self().Addr
		if _, isSub := subs[addr]; !isSub && len(f.delivered[addr]) != 0 {
			t.Fatalf("non-subscriber %s received a delivery", addr)
		}
	}
}

func TestCreateClaimsRendezvousRoot(t *testing.T) {
	f := newForest(t, 100, ring.Config{B: 4}, Config{}, 3)
	topic := ids.Hash("app-created")
	f.stacks[0].ps.Create(topic)
	f.net.RunUntilIdle()
	roots := 0
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(topic); ok && info.IsRoot {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("roots=%d want 1", roots)
	}
}

func TestInNetworkAggregation(t *testing.T) {
	f := newForest(t, 200, ring.Config{B: 4}, Config{}, 4)
	topic := ids.Hash("app-agg")
	var subs []*stack
	for i := 0; i < 60; i++ {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		s.ps.Subscribe(topic)
		subs = append(subs, s)
	}
	f.net.RunUntilIdle()
	f.verifyTree(t, topic, subs)

	members := f.attachedMembers(topic)
	contributors := 0
	for _, s := range members {
		info, _ := s.ps.TreeInfo(topic)
		if info.Subscribed {
			s.ps.SubmitUpdate(topic, 1, 1)
			contributors++
		} else {
			s.ps.SubmitUpdate(topic, 1, nil)
		}
	}
	f.net.RunUntilIdle()
	k := fmt.Sprintf("%s/%d", topic, 1)
	res := f.aggregates[k]
	if len(res) != 1 {
		t.Fatalf("aggregate results = %d want 1", len(res))
	}
	if res[0].count != contributors || res[0].obj != contributors {
		t.Fatalf("aggregate=%+v want count=%d", res[0], contributors)
	}
	// In-network aggregation: each non-root member flushes exactly once, so
	// upstream messages equal the number of tree edges.
	totalUp := 0
	for _, s := range members {
		totalUp += int(s.ps.Metrics().Counter("pubsub.upstreams_sent").Value())
	}
	if totalUp != len(members)-1 {
		t.Fatalf("upstream messages = %d want %d (one per edge)", totalUp, len(members)-1)
	}
}

func TestAggregationTimeoutFlushesPartial(t *testing.T) {
	f := newForest(t, 150, ring.Config{B: 4}, Config{AggTimeout: 100 * time.Millisecond}, 5)
	topic := ids.Hash("app-straggler")
	var subs []*stack
	for i := 0; i < 40; i++ {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		s.ps.Subscribe(topic)
		subs = append(subs, s)
	}
	f.net.RunUntilIdle()
	members := f.attachedMembers(topic)
	// Everybody but one leaf submits.
	var straggler *stack
	for _, s := range members {
		info, _ := s.ps.TreeInfo(topic)
		if len(info.Children) == 0 && !info.IsRoot && straggler == nil {
			straggler = s
			continue
		}
	}
	contributors := 0
	for _, s := range members {
		if s == straggler {
			continue
		}
		info, _ := s.ps.TreeInfo(topic)
		if info.Subscribed {
			s.ps.SubmitUpdate(topic, 7, 1)
			contributors++
		} else {
			s.ps.SubmitUpdate(topic, 7, nil)
		}
	}
	f.net.Run(5 * time.Second)
	k := fmt.Sprintf("%s/%d", topic, 7)
	res := f.aggregates[k]
	if len(res) == 0 {
		t.Fatal("no aggregate despite timeout")
	}
	total := 0
	for _, r := range res {
		total += r.count
	}
	if total != contributors {
		t.Fatalf("partial aggregate count=%d want %d", total, contributors)
	}
}

// TestPostFlushStragglerWithInPlaceCombiner reproduces the FL layer's
// combiner contract: the left operand is owned and mutated in place, and
// the right operand is adopted by reference when the left is nil. Because
// the in-memory transport hands objects upstream by reference, a node must
// never merge a late contribution into an accumulator it already flushed —
// the flushed object is the very one its parent (or the root's OnAggregate
// record) holds, so the straggler would be both double-counted there and
// forwarded again as a supplementary partial.
func TestPostFlushStragglerWithInPlaceCombiner(t *testing.T) {
	type acc struct{ sum, count int }
	f := newForest(t, 150, ring.Config{B: 4}, Config{AggTimeout: 100 * time.Millisecond}, 5)
	topic := ids.Hash("app-late-straggler")
	var results []*acc
	for _, s := range f.stacks {
		s.ps.SetHandlers(Handlers{
			Combine: func(_ ids.ID, a, b any) any {
				aa, bb := a.(*acc), b.(*acc)
				aa.sum += bb.sum
				aa.count += bb.count
				return aa
			},
			OnAggregate: func(tp ids.ID, round int, obj any, count int) {
				if tp == topic && obj != nil {
					results = append(results, obj.(*acc))
				}
			},
		})
	}
	var subs []*stack
	for i := 0; i < 40; i++ {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		s.ps.Subscribe(topic)
		subs = append(subs, s)
	}
	f.net.RunUntilIdle()
	root := f.verifyTree(t, topic, subs)
	// The straggler is a direct child of the root: its late report reaches
	// a flushed round whose combined object OnAggregate recorded, which is
	// exactly where a post-flush merge would corrupt the result.
	rootInfo, _ := root.ps.TreeInfo(topic)
	if len(rootInfo.Children) == 0 {
		t.Fatal("root has no children")
	}
	straggler := f.byAddr[rootInfo.Children[0].Addr]
	contributors := 0
	for _, s := range f.attachedMembers(topic) {
		if s == straggler {
			continue
		}
		info, _ := s.ps.TreeInfo(topic)
		if info.Subscribed {
			s.ps.SubmitUpdate(topic, 3, &acc{sum: 1, count: 1})
			contributors++
		} else {
			s.ps.SubmitUpdate(topic, 3, nil)
		}
	}
	f.net.Run(5 * time.Second) // every round has timeout-flushed by now
	if len(results) == 0 {
		t.Fatal("no aggregate despite timeout")
	}
	straggler.ps.SubmitUpdate(topic, 3, &acc{sum: 1000, count: 1})
	f.net.Run(5 * time.Second)
	totalSum, totalCount := 0, 0
	for _, r := range results {
		totalSum += r.sum
		totalCount += r.count
	}
	if want := contributors + 1000; totalSum != want {
		t.Fatalf("aggregate sum = %d want %d (late straggler dropped or double-counted)", totalSum, want)
	}
	if want := contributors + 1; totalCount != want {
		t.Fatalf("aggregate count = %d want %d", totalCount, want)
	}
}

func TestKeepAliveRepairAfterParentFailure(t *testing.T) {
	pcfg := Config{
		KeepAliveInterval: 50 * time.Millisecond,
		KeepAliveTimeout:  150 * time.Millisecond,
	}
	f := newForest(t, 300, ring.Config{B: 4}, pcfg, 7)
	topic := ids.Hash("app-churn")
	var subs []*stack
	for i := 0; i < 100; i++ {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		s.ps.Subscribe(topic)
		subs = append(subs, s)
	}
	f.net.Run(200 * time.Millisecond)
	root := f.verifyTree(t, topic, subs)

	// Fail one interior (non-root) node that has children.
	var victim *stack
	for _, s := range f.attachedMembers(topic) {
		info, _ := s.ps.TreeInfo(topic)
		if !info.IsRoot && len(info.Children) > 0 {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Skip("no interior node to fail")
	}
	f.net.Fail(victim.ring.Self().Addr)

	// Give keep-alive detection and re-join time to play out.
	f.net.Run(f.net.Now() + 2*time.Second)

	// All live subscribers must be re-attached with a parent chain to root.
	var live []*stack
	for _, s := range subs {
		if f.net.Alive(s.ring.Self().Addr) {
			live = append(live, s)
		}
	}
	for _, s := range live {
		cur := s
		for hops := 0; ; hops++ {
			info, ok := cur.ps.TreeInfo(topic)
			if !ok || !info.Attached {
				t.Fatalf("subscriber %s still orphaned after repair", cur.ring.Self().Addr)
			}
			if info.IsRoot {
				break
			}
			if info.Parent.Addr == victim.ring.Self().Addr {
				t.Fatalf("node %s still points at the failed parent", cur.ring.Self().Addr)
			}
			if hops > len(f.stacks) {
				t.Fatal("cycle after repair")
			}
			cur = f.byAddr[info.Parent.Addr]
		}
	}
	_ = root
}

func TestUnsubscribeCascadesForwarderRemoval(t *testing.T) {
	f := newForest(t, 120, ring.Config{B: 4}, Config{}, 8)
	topic := ids.Hash("app-leave")
	s := f.stacks[3]
	s.ps.Subscribe(topic)
	f.net.RunUntilIdle()
	members := f.attachedMembers(topic)
	s.ps.Unsubscribe(topic)
	f.net.RunUntilIdle()
	// Everything except the root should have garbage-collected its state.
	remaining := f.attachedMembers(topic)
	if len(remaining) >= len(members) && len(members) > 1 {
		t.Fatalf("leave did not shrink the tree: %d -> %d", len(members), len(remaining))
	}
	for _, m := range remaining {
		info, _ := m.ps.TreeInfo(topic)
		if !info.IsRoot && len(info.Children) == 0 && !info.Subscribed {
			t.Fatalf("childless forwarder %s survived the cascade", m.ring.Self().Addr)
		}
	}
}

func TestManyTopicsDistributeRoots(t *testing.T) {
	f := newForest(t, 200, ring.Config{B: 4}, Config{}, 9)
	const topics = 100
	for i := 0; i < topics; i++ {
		topic := ids.Hash(fmt.Sprintf("app-%d", i))
		for j := 0; j < 10; j++ {
			f.stacks[f.rng.Intn(len(f.stacks))].ps.Subscribe(topic)
		}
	}
	f.net.RunUntilIdle()
	maxRoots, totalRoots := 0, 0
	for _, s := range f.stacks {
		rc := s.ps.RootCount()
		totalRoots += rc
		if rc > maxRoots {
			maxRoots = rc
		}
	}
	if totalRoots != topics {
		t.Fatalf("total roots = %d want %d", totalRoots, topics)
	}
	// Uniform hashing over 200 nodes: no node should carry a large pile of
	// masters (paper Fig 5b: 99.5%% of nodes root ≤3 of 500 trees on 1000
	// nodes; for 100 trees on 200 nodes a max of ~6 is already generous).
	if maxRoots > 6 {
		t.Fatalf("load imbalance: one node roots %d trees", maxRoots)
	}
}

func TestPublishBeforeAnySubscriberStillRoots(t *testing.T) {
	f := newForest(t, 80, ring.Config{B: 4}, Config{}, 10)
	topic := ids.Hash("app-empty")
	f.stacks[0].ps.Publish(topic, "nobody-listens")
	f.net.RunUntilIdle()
	roots := 0
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(topic); ok && info.IsRoot {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("roots=%d want 1", roots)
	}
}
