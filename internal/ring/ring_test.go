package ring

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// recordingApp records deliveries made to one node.
type recordingApp struct {
	deliveries []Delivery
}

func (a *recordingApp) Deliver(d Delivery)              { a.deliveries = append(a.deliveries, d) }
func (a *recordingApp) Forward(*Delivery, Contact) bool { return true }

type cluster struct {
	net    *simnet.Network
	nodes  []*Node
	apps   []*recordingApp
	byAddr map[transport.Addr]int
	rng    *rand.Rand
}

func newStaticCluster(t testing.TB, n int, cfg Config, seed int64) *cluster {
	t.Helper()
	c := &cluster{
		net:    simnet.New(simnet.Config{Seed: seed}),
		byAddr: make(map[transport.Addr]int),
		rng:    rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("n%d", i))
		id := ids.Random(c.rng)
		app := &recordingApp{}
		var node *Node
		c.net.AddNode(addr, func(e transport.Env) transport.Handler {
			node = New(e, Contact{ID: id, Addr: addr}, cfg)
			node.SetApp(app)
			return node
		})
		c.nodes = append(c.nodes, node)
		c.apps = append(c.apps, app)
		c.byAddr[addr] = i
	}
	BuildStatic(c.nodes, c.rng)
	return c
}

// owner returns the index of the node numerically closest to key.
func (c *cluster) owner(key ids.ID) int {
	best := 0
	for i := 1; i < len(c.nodes); i++ {
		if ids.Closer(key, c.nodes[i].self.ID, c.nodes[best].self.ID) {
			best = i
		}
	}
	return best
}

// ownerAlive returns the closest node that is still alive.
func (c *cluster) ownerAlive(key ids.ID) int {
	best := -1
	for i := range c.nodes {
		if !c.net.Alive(c.nodes[i].self.Addr) {
			continue
		}
		if best < 0 || ids.Closer(key, c.nodes[i].self.ID, c.nodes[best].self.ID) {
			best = i
		}
	}
	return best
}

func TestStaticRoutingReachesOwner(t *testing.T) {
	c := newStaticCluster(t, 1000, Config{B: 4}, 1)
	for trial := 0; trial < 200; trial++ {
		key := ids.Random(c.rng)
		src := c.rng.Intn(len(c.nodes))
		want := c.owner(key)
		before := len(c.apps[want].deliveries)
		c.nodes[src].Route(key, "probe")
		c.net.RunUntilIdle()
		if len(c.apps[want].deliveries) != before+1 {
			t.Fatalf("trial %d: key %s not delivered to owner %d", trial, key, want)
		}
		d := c.apps[want].deliveries[before]
		if d.Key != key || d.Payload != "probe" {
			t.Fatalf("wrong delivery %+v", d)
		}
	}
}

func TestRoutingHopsLogarithmic(t *testing.T) {
	// ceil(log_16(1000)) = 3; with the leaf-set shortcut most routes use
	// fewer. Allow one hop of slack.
	c := newStaticCluster(t, 1000, Config{B: 4}, 2)
	maxAllowed := int(math.Ceil(math.Log(1000)/math.Log(16))) + 1
	totalHops, routes := 0, 0
	for trial := 0; trial < 300; trial++ {
		key := ids.Random(c.rng)
		src := c.rng.Intn(len(c.nodes))
		want := c.owner(key)
		before := len(c.apps[want].deliveries)
		c.nodes[src].Route(key, trial)
		c.net.RunUntilIdle()
		d := c.apps[want].deliveries[before]
		if d.Hops > maxAllowed {
			t.Fatalf("route took %d hops (> %d)", d.Hops, maxAllowed)
		}
		totalHops += d.Hops
		routes++
	}
	avg := float64(totalHops) / float64(routes)
	if avg < 1.0 {
		t.Fatalf("suspiciously low average hops %.2f", avg)
	}
}

func TestSelfRouteDeliversLocally(t *testing.T) {
	c := newStaticCluster(t, 50, Config{B: 4}, 3)
	n := c.nodes[7]
	n.Route(n.self.ID, "self")
	c.net.RunUntilIdle()
	if len(c.apps[7].deliveries) != 1 || c.apps[7].deliveries[0].Hops != 0 {
		t.Fatalf("self route: %+v", c.apps[7].deliveries)
	}
}

func TestLeafsetContainsImmediateNeighbors(t *testing.T) {
	c := newStaticCluster(t, 300, Config{B: 4}, 4)
	for i, n := range c.nodes {
		// The globally closest successor must be the first cw leaf.
		var succ Contact
		for j, m := range c.nodes {
			if j == i {
				continue
			}
			if succ.IsZero() ||
				ids.CWDist(n.self.ID, m.self.ID).Less(ids.CWDist(n.self.ID, succ.ID)) {
				succ = m.self
			}
		}
		if len(n.leafCW) == 0 || n.leafCW[0].Addr != succ.Addr {
			t.Fatalf("node %d leafCW[0] = %v want %v", i, n.leafCW, succ.Addr)
		}
	}
}

func TestDynamicJoinConverges(t *testing.T) {
	seed := int64(5)
	net := simnet.New(simnet.Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{B: 4}
	var nodes []*Node
	var apps []*recordingApp

	addNode := func(i int) *Node {
		addr := transport.Addr(fmt.Sprintf("j%d", i))
		id := ids.Random(rng)
		app := &recordingApp{}
		var node *Node
		net.AddNode(addr, func(e transport.Env) transport.Handler {
			node = New(e, Contact{ID: id, Addr: addr}, cfg)
			node.SetApp(app)
			return node
		})
		nodes = append(nodes, node)
		apps = append(apps, app)
		return node
	}

	first := addNode(0)
	first.joined = true
	const n = 120
	for i := 1; i < n; i++ {
		node := addNode(i)
		bootstrap := nodes[rng.Intn(i)].self.Addr
		node.Join(bootstrap)
		net.RunUntilIdle()
		if !node.Joined() {
			t.Fatalf("node %d did not complete join", i)
		}
	}

	owner := func(key ids.ID) int {
		best := 0
		for i := 1; i < len(nodes); i++ {
			if ids.Closer(key, nodes[i].self.ID, nodes[best].self.ID) {
				best = i
			}
		}
		return best
	}

	for trial := 0; trial < 100; trial++ {
		key := ids.Random(rng)
		src := rng.Intn(n)
		want := owner(key)
		before := len(apps[want].deliveries)
		nodes[src].Route(key, trial)
		net.RunUntilIdle()
		if len(apps[want].deliveries) != before+1 {
			t.Fatalf("trial %d: dynamic overlay misrouted key %s", trial, key)
		}
	}
}

func TestReliableHopsRerouteAroundFailure(t *testing.T) {
	cfg := Config{B: 4, ReliableHops: true, HopAckTimeout: 50 * time.Millisecond}
	c := newStaticCluster(t, 400, Config{B: cfg.B, ReliableHops: true, HopAckTimeout: cfg.HopAckTimeout}, 6)

	failures := 0
	for trial := 0; trial < 40; trial++ {
		key := ids.Random(c.rng)
		src := c.rng.Intn(len(c.nodes))
		// Fail the first hop on the route, then route: the sender must time
		// out, scrub the contact, and find another way.
		first := c.nodes[src].NextHop(key)
		if first.IsZero() {
			continue
		}
		c.net.Fail(first.Addr)
		failures++
		want := c.ownerAlive(key)
		if want < 0 || c.nodes[want].self.Addr == first.Addr {
			c.net.Revive(first.Addr)
			failures--
			continue
		}
		before := len(c.apps[want].deliveries)
		c.nodes[src].Route(key, trial)
		c.net.RunUntilIdle()
		if len(c.apps[want].deliveries) != before+1 {
			t.Fatalf("trial %d: route not repaired around failed hop", trial)
		}
		c.net.Revive(first.Addr)
		// Re-teach the revived contact so later trials see a full overlay.
		addContact(c.nodes[src], first)
	}
	if failures == 0 {
		t.Fatal("test never exercised a failure")
	}
}

func TestRemoveContactScrubsEverything(t *testing.T) {
	c := newStaticCluster(t, 100, Config{B: 4}, 7)
	victim := c.nodes[3].self
	n := c.nodes[0]
	addContact(n, victim)
	n.RemoveContact(victim.Addr)
	for _, k := range n.knownContacts() {
		if k.Addr == victim.Addr {
			t.Fatal("victim still present after RemoveContact")
		}
	}
}

func TestLeafsetRepairRefills(t *testing.T) {
	c := newStaticCluster(t, 200, Config{B: 4}, 8)
	n := c.nodes[0]
	before := len(n.Leafset())
	// Fail a leaf and scrub it; the repair protocol should refill from the
	// surviving extremes.
	victim := n.leafCW[0]
	c.net.Fail(victim.Addr)
	n.RemoveContact(victim.Addr)
	c.net.RunUntilIdle()
	after := len(n.Leafset())
	if after < before-1 {
		t.Fatalf("leafset shrank from %d to %d without repair", before, after)
	}
	for _, l := range n.Leafset() {
		if l.Addr == victim.Addr {
			t.Fatal("failed leaf still present")
		}
	}
}

func TestInsertSortedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := &Node{self: Contact{ID: ids.Random(rng)}}
	self := n.self.ID
	var list []*Contact
	const max = 12
	seen := make(map[transport.Addr]bool)
	for i := 0; i < 500; i++ {
		c := Contact{ID: ids.Random(rng), Addr: transport.Addr(fmt.Sprintf("c%d", i%80))}
		var cell *Contact
		list = n.insertSorted(list, c, &cell, true, max)
		seen[c.Addr] = true
		if len(list) > max {
			t.Fatalf("list overflow: %d", len(list))
		}
		for j := 1; j < len(list); j++ {
			if ids.CWDist(self, list[j].ID).Less(ids.CWDist(self, list[j-1].ID)) {
				t.Fatal("list not sorted by cw distance")
			}
		}
		addrs := make(map[transport.Addr]bool)
		for _, e := range list {
			if addrs[e.Addr] {
				t.Fatal("duplicate addr in leaf list")
			}
			addrs[e.Addr] = true
		}
	}
}

// insertSortedReference is insertSorted as it stood before the full-half
// early-out: a duplicate scan, then a position scan.
func insertSortedReference(self ids.ID, list []Contact, c Contact, cw bool, max int) []Contact {
	dist := func(x Contact) ids.ID {
		if cw {
			return ids.CWDist(self, x.ID)
		}
		return ids.CWDist(x.ID, self)
	}
	for _, e := range list {
		if e.Addr == c.Addr {
			return list
		}
	}
	pos := len(list)
	dc := dist(c)
	for i, e := range list {
		if dc.Less(dist(e)) {
			pos = i
			break
		}
	}
	if pos >= max {
		return list // farther than every entry of a full half
	}
	if list == nil {
		list = make([]Contact, 0, max)
	}
	if len(list) < max {
		list = append(list, Contact{})
	}
	copy(list[pos+1:], list[pos:])
	list[pos] = c
	return list
}

// TestInsertSortedMatchesReference feeds the same contacts to insertSorted
// and to the function it replaced — random IDs, addresses that come back
// under a different ID, IDs (so distances) that come back under a different
// address, both directions, halves of size 0, 1 and the default — and
// requires the same half after every insert.
func TestInsertSortedMatchesReference(t *testing.T) {
	for _, max := range []int{0, 1, 2, 8} {
		for _, cw := range []bool{true, false} {
			rng := rand.New(rand.NewSource(int64(31 + max)))
			n := &Node{self: Contact{ID: ids.Random(rng)}}
			self := n.self.ID
			var got []*Contact
			var want []Contact
			var pool []ids.ID
			for i := 0; i < 2000; i++ {
				c := Contact{ID: ids.Random(rng), Addr: transport.Addr(fmt.Sprintf("c%d", rng.Intn(40)))}
				switch rng.Intn(4) {
				case 0:
					if len(pool) > 0 { // an equal distance, usually under another address
						c.ID = pool[rng.Intn(len(pool))]
					}
				case 1:
					if len(want) > 0 { // an entry's address or ID, the other field fresh
						e := want[rng.Intn(len(want))]
						if rng.Intn(2) == 0 {
							c.Addr = e.Addr
						} else {
							c.ID = e.ID
						}
					}
				}
				pool = append(pool, c.ID)
				var cell *Contact
				got = n.insertSorted(got, c, &cell, cw, max)
				want = insertSortedReference(self, want, c, cw, max)
				if len(got) != len(want) {
					t.Fatalf("max %d cw %v insert %d: half has %d entries, reference %d", max, cw, i, len(got), len(want))
				}
				for j := range want {
					if *got[j] != want[j] {
						t.Fatalf("max %d cw %v insert %d: entry %d is %v, reference %v", max, cw, i, j, *got[j], want[j])
					}
				}
			}
			if len(want) != max {
				t.Fatalf("max %d cw %v: the half never filled (%d entries)", max, cw, len(want))
			}
		}
	}
}

func TestJoinedNodeRoutesImmediately(t *testing.T) {
	c := newStaticCluster(t, 64, Config{B: 3}, 10)
	// A brand-new node joins the static overlay dynamically and can route.
	addr := transport.Addr("late")
	id := ids.Random(c.rng)
	app := &recordingApp{}
	var node *Node
	c.net.AddNode(addr, func(e transport.Env) transport.Handler {
		node = New(e, Contact{ID: id, Addr: addr}, Config{B: 3})
		node.SetApp(app)
		return node
	})
	node.Join(c.nodes[0].self.Addr)
	c.net.RunUntilIdle()
	if !node.Joined() {
		t.Fatal("late join failed")
	}
	key := ids.Random(c.rng)
	all := append(append([]*Node{}, c.nodes...), node)
	best := 0
	for i := 1; i < len(all); i++ {
		if ids.Closer(key, all[i].self.ID, all[best].self.ID) {
			best = i
		}
	}
	node.Route(key, "late-route")
	c.net.RunUntilIdle()
	var delivered bool
	if best == len(all)-1 {
		delivered = len(app.deliveries) > 0
	} else {
		delivered = len(c.apps[best].deliveries) > 0
	}
	if !delivered {
		t.Fatal("route from late joiner not delivered to owner")
	}
}

// addContact inserts c without any messaging, clearing its dead-quarantine.
func addContact(n *Node, c Contact) {
	delete(n.deadUntil, c.Addr)
	n.considerContact(c)
}

// rtEntries counts the populated routing-table slots.
func rtEntries(n *Node) int {
	total := 0
	for _, row := range n.rt {
		for _, c := range row {
			if c != nil {
				total++
			}
		}
	}
	return total
}

func TestRTEntriesPopulated(t *testing.T) {
	c := newStaticCluster(t, 1000, Config{B: 4}, 11)
	empty := 0
	for _, n := range c.nodes {
		if rtEntries(n) == 0 {
			empty++
		}
	}
	if empty > 0 {
		t.Fatalf("%d nodes have empty routing tables", empty)
	}
}

func TestDifferentBasesRouteCorrectly(t *testing.T) {
	for _, b := range []int{3, 4, 5} {
		b := b
		t.Run(fmt.Sprintf("b=%d", b), func(t *testing.T) {
			c := newStaticCluster(t, 500, Config{B: b}, int64(20+b))
			for trial := 0; trial < 60; trial++ {
				key := ids.Random(c.rng)
				src := c.rng.Intn(len(c.nodes))
				want := c.owner(key)
				before := len(c.apps[want].deliveries)
				c.nodes[src].Route(key, trial)
				c.net.RunUntilIdle()
				if len(c.apps[want].deliveries) != before+1 {
					t.Fatalf("b=%d misrouted", b)
				}
			}
		})
	}
}

// closestContact and leafsetByMap are the oracles of
// TestLeafBranchMatchesOracle: the obvious forms — materialise the union,
// dedup through a map, take the closest — of what nextHop's leaf-range
// branch and Leafset do by scanning the two halves in place.
func closestContact(key ids.ID, cs []Contact) Contact {
	var best Contact
	for _, c := range cs {
		if best.IsZero() || ids.Closer(key, c.ID, best.ID) {
			best = c
		}
	}
	return best
}

func leafsetByMap(n *Node) []Contact {
	var out []Contact
	seen := make(map[transport.Addr]bool)
	for _, half := range [][]*Contact{n.leafCW, n.leafCCW} {
		for _, c := range half {
			if !seen[c.Addr] {
				seen[c.Addr] = true
				out = append(out, *c)
			}
		}
	}
	return out
}

// The in-place leaf scan picks the closest of Leafset() minus the excluded
// address, plus self — on rings smaller than a leaf half (both halves hold
// everyone), barely larger, and large; and Leafset lists the clockwise half,
// then what the other half adds.
func TestLeafBranchMatchesOracle(t *testing.T) {
	for _, size := range []int{1, 2, 5, 13, 23, 25, 40, 300} {
		c := newStaticCluster(t, size, Config{}, int64(size))
		checked := 0
		for _, n := range c.nodes {
			ls := leafsetByMap(n)
			if got := n.Leafset(); fmt.Sprint(got) != fmt.Sprint(ls) {
				t.Fatalf("size %d: Leafset() = %v, want %v", size, got, ls)
			}
			for trial := 0; trial < 40; trial++ {
				key := ids.Random(c.rng)
				if trial%4 == 0 && len(ls) > 0 { // just past a leaf: ties and near-ties
					key = ls[c.rng.Intn(len(ls))].ID.Add(ids.ID{Lo: uint64(c.rng.Intn(3))})
				}
				exclude := transport.None
				if trial%3 == 0 && len(ls) > 0 {
					exclude = ls[c.rng.Intn(len(ls))].Addr
				}
				if !n.inLeafRange(key) || key == n.self.ID {
					continue
				}
				var cands []Contact
				for _, l := range ls {
					if l.Addr != exclude {
						cands = append(cands, l)
					}
				}
				want := closestContact(key, append(cands, n.self))
				if want.Addr == n.self.Addr {
					want = Contact{}
				}
				if got := n.nextHop(key, exclude); got != want {
					t.Fatalf("size %d node %s key %s exclude %q: next hop %v, want %v", size, n.self.Addr, key, exclude, got, want)
				}
				checked++
			}
		}
		if size > 1 && checked == 0 {
			t.Fatalf("size %d: no key fell in a leaf range", size)
		}
	}
}

// A route's last hop — the key is inside the leaf range — allocates nothing.
func TestTerminalHopAllocatesNothing(t *testing.T) {
	c := newStaticCluster(t, 300, Config{}, 3)
	n := c.nodes[0]
	keys := []ids.ID{n.leafCW[3].ID, n.leafCCW[5].ID.Add(ids.ID{Lo: 1}), n.self.ID.Add(ids.ID{Lo: 1})}
	for _, key := range keys {
		if !n.inLeafRange(key) {
			t.Fatalf("key %s is outside the leaf range", key)
		}
		if allocs := testing.AllocsPerRun(100, func() { n.nextHop(key, transport.None) }); allocs != 0 {
			t.Fatalf("nextHop(%s) allocated %.0f times", key, allocs)
		}
	}
}
