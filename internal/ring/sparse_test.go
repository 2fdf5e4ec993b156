package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"totoro/internal/ids"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// Routing-table rows exist only once they hold an entry. These tests drive
// routing, insertion, removal and the join protocol through nodes whose
// tables are mostly (or entirely) unallocated.

// idWithPrefix returns base's first `at` digits (B=4), then digit `at`
// replaced and the tail cleared, so the result shares exactly `at` leading
// digits with base.
func idWithPrefix(base ids.ID, at int) ids.ID {
	var out ids.ID
	for i := 0; i <= at; i++ {
		v := uint64(base.Digit(i, 4))
		if i == at {
			v = (v + 1) % 16
		}
		if shift := 124 - 4*i; shift >= 64 {
			out.Hi |= v << (shift - 64)
		} else {
			out.Lo |= v << shift
		}
	}
	out.Lo |= 0xbeef // keep the ID away from round numbers
	return out
}

func TestSparseRoutingTable(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	self := Contact{ID: ids.ID{Hi: 0x0123456789abcdef, Lo: 0x1111}, Addr: "self"}
	var n *Node
	net.AddNode(self.Addr, func(e transport.Env) transport.Handler {
		n = New(e, self, Config{B: 4})
		return n
	})
	if len(n.rt) != 0 || rtEntries(n) != 0 {
		t.Fatalf("a fresh node holds %d rows, %d entries; want none", len(n.rt), rtEntries(n))
	}
	if next := n.NextHop(ids.ID{Hi: 42}); !next.IsZero() {
		t.Fatalf("a node that knows nobody must own every key, got next hop %v", next)
	}

	// One contact deep in the table: row 5 exists, rows 0–4 stay nil.
	deep := Contact{ID: idWithPrefix(self.ID, 5), Addr: "deep"}
	addContact(n, deep)
	if len(n.rt) != 6 {
		t.Fatalf("table has %d rows after an insert at row 5, want 6", len(n.rt))
	}
	for r := 0; r < 5; r++ {
		if n.rt[r] != nil {
			t.Fatalf("row %d was allocated without an entry", r)
		}
	}
	if got := n.rtEntry(5, deep.ID.Digit(5, 4)); got != deep {
		t.Fatalf("entry at row 5 is %v, want %v", got, deep)
	}
	if got := n.rtEntry(2, 7); !got.IsZero() {
		t.Fatalf("nil row 2 reports an entry %v", got)
	}
	if got := n.rtEntry(20, 0); !got.IsZero() {
		t.Fatalf("row 20, beyond the table, reports an entry %v", got)
	}
	if rtEntries(n) != 1 {
		t.Fatalf("%d routing-table entries, want 1", rtEntries(n))
	}

	// The nearest twelve ring neighbours on each side fill the leaf set and
	// shrink its range to self±12, so every other key takes the routing-table
	// path. They share all but the last one or two digits with self: the
	// table now spans all 32 rows with rows 6–29 unallocated.
	for k := uint64(1); k <= 12; k++ {
		addContact(n, Contact{ID: ids.ID{Hi: self.ID.Hi, Lo: self.ID.Lo + k}, Addr: transport.Addr(fmt.Sprintf("succ%d", k))})
		addContact(n, Contact{ID: ids.ID{Hi: self.ID.Hi, Lo: self.ID.Lo - k}, Addr: transport.Addr(fmt.Sprintf("pred%d", k))})
	}
	if len(n.rt) != 32 || n.rt[17] != nil || rtEntries(n) != 15 {
		t.Fatalf("table has %d rows, %d entries after the last-row inserts", len(n.rt), rtEntries(n))
	}

	// A key whose row is allocated and populated routes through the entry.
	if next := n.NextHop(deep.ID); next != deep {
		t.Fatalf("NextHop(deep.ID) = %v, want the row-5 entry", next)
	}
	// A key whose row is nil has no entry and falls back to the closest
	// known contact with at least that prefix: deep, which lies between self
	// and the key.
	key := idWithPrefix(self.ID, 3)
	if row := ids.CommonPrefix(self.ID, key, 4); row != 3 || n.rt[3] != nil {
		t.Fatalf("test set-up: key row %d, rt[3] allocated %v", row, n.rt[3] != nil)
	}
	if next := n.NextHop(key); next != deep {
		t.Fatalf("NextHop over a nil row = %v, want the fallback contact %v", next, deep)
	}

	// Removal walks nil rows without tripping and empties the entry.
	n.RemoveContact(deep.Addr)
	if rtEntries(n) != 14 || !n.rtEntry(5, deep.ID.Digit(5, 4)).IsZero() {
		t.Fatalf("RemoveContact left %d entries", rtEntries(n))
	}
	for _, c := range n.knownContacts() {
		if c.Addr == deep.Addr {
			t.Fatal("removed contact still known")
		}
	}
}

// A join request passing through a node contributes one row per shared
// prefix digit; a row the node never allocated contributes the node itself
// and nothing else.
func TestJoinRowsFromNilRows(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 2})
	member := Contact{ID: ids.ID{Hi: 0xfedcba9876543210, Lo: 5}, Addr: "member"}
	joiner := Contact{ID: idWithPrefix(member.ID, 4), Addr: "joiner"}
	var m, j *Node
	var reply *JoinReply
	net.AddNode(member.Addr, func(e transport.Env) transport.Handler {
		m = New(e, member, Config{B: 4})
		return m
	})
	net.AddNode(joiner.Addr, func(e transport.Env) transport.Handler {
		j = New(e, joiner, Config{B: 4})
		return transport.HandlerFunc(func(from transport.Addr, msg any) {
			if r, ok := msg.(JoinReply); ok {
				reply = &r
			}
			j.Receive(from, msg)
		})
	})
	m.joined = true
	j.Join(member.Addr)
	net.RunUntilIdle()
	if reply == nil || !j.Joined() {
		t.Fatal("join did not complete")
	}
	if len(reply.Rows) != 5 {
		t.Fatalf("reply carries %d rows, want 5 (rows 0–4 for a 4-digit shared prefix)", len(reply.Rows))
	}
	for r := 0; r < 4; r++ {
		if len(reply.Rows[r]) != 1 || reply.Rows[r][0] != member {
			t.Fatalf("row %d, never allocated at the member, contributed %v; want just the member", r, reply.Rows[r])
		}
	}
	if last := reply.Rows[4]; len(last) != 2 || last[0] != joiner || last[1] != member {
		t.Fatalf("row 4 contributed %v; want the joiner's own entry and the member", last)
	}
	if j.rtEntry(4, member.ID.Digit(4, 4)) != member || m.rtEntry(4, joiner.ID.Digit(4, 4)) != joiner {
		t.Fatal("the two nodes did not end up in each other's row 4")
	}
}

// checkTable verifies the routing-table invariant on a sparse table: every
// entry sits in the row of its shared-prefix length and the column of its
// next digit.
func checkTable(t *testing.T, n *Node) {
	t.Helper()
	if len(n.rt) > 0 && n.rt[len(n.rt)-1] == nil {
		t.Fatalf("%s: the table ends in an unallocated row", n.self.Addr)
	}
	for r, row := range n.rt {
		for col, c := range row {
			if c.IsZero() {
				continue
			}
			if got := ids.CommonPrefix(n.self.ID, c.ID, n.cfg.B); got != r || c.ID.Digit(r, n.cfg.B) != col {
				t.Fatalf("%s: entry %s at (%d,%d) shares %d digits and has digit %d there",
					n.self.Addr, c.Addr, r, col, got, c.ID.Digit(r, n.cfg.B))
			}
		}
	}
}

// The same population wired statically and grown join by join routes every
// key from every source to the same node — the key's owner — and both keep
// well-formed sparse tables.
func TestStaticAndJoinBuiltOverlaysAgree(t *testing.T) {
	const n = 150
	idRng := rand.New(rand.NewSource(31))
	population := make([]ids.ID, n)
	for i := range population {
		population[i] = ids.Random(idRng)
	}
	build := func(seed int64) (*simnet.Network, []*Node, []*recordingApp) {
		net := simnet.New(simnet.Config{Seed: seed})
		nodes := make([]*Node, n)
		apps := make([]*recordingApp, n)
		for i, id := range population {
			addr := transport.Addr(fmt.Sprintf("n%d", i))
			apps[i] = &recordingApp{}
			net.AddNode(addr, func(e transport.Env) transport.Handler {
				nodes[i] = New(e, Contact{ID: id, Addr: addr}, Config{B: 4})
				nodes[i].SetApp(apps[i])
				return nodes[i]
			})
		}
		return net, nodes, apps
	}

	sNet, sNodes, sApps := build(1)
	BuildStatic(sNodes, rand.New(rand.NewSource(1)))

	jNet, jNodes, jApps := build(2)
	jRng := rand.New(rand.NewSource(2))
	jNodes[0].joined = true
	for i := 1; i < n; i++ {
		jNodes[i].Join(jNodes[jRng.Intn(i)].self.Addr)
		jNet.RunUntilIdle()
		if !jNodes[i].Joined() {
			t.Fatalf("node %d did not complete its join", i)
		}
	}

	for i := 0; i < n; i++ {
		checkTable(t, sNodes[i])
		checkTable(t, jNodes[i])
		if rtEntries(sNodes[i]) == 0 || rtEntries(jNodes[i]) == 0 {
			t.Fatalf("node %d has an empty routing table (static %d, joined %d entries)",
				i, rtEntries(sNodes[i]), rtEntries(jNodes[i]))
		}
	}

	deliveredAt := func(apps []*recordingApp, mark int) int {
		at := -1
		for i, a := range apps {
			for _, d := range a.deliveries {
				if d.Payload == mark {
					if at >= 0 {
						return -2 // delivered twice
					}
					at = i
				}
			}
		}
		return at
	}
	keyRng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		key := ids.Random(keyRng)
		src := keyRng.Intn(n)
		owner := 0
		for i := 1; i < n; i++ {
			if ids.Closer(key, population[i], population[owner]) {
				owner = i
			}
		}
		sNodes[src].Route(key, trial)
		jNodes[src].Route(key, trial)
		sNet.RunUntilIdle()
		jNet.RunUntilIdle()
		if s, j := deliveredAt(sApps, trial), deliveredAt(jApps, trial); s != owner || j != owner {
			t.Fatalf("trial %d: key %s from node %d reached node %d (static) and %d (joined), owner is %d",
				trial, key, src, s, j, owner)
		}
	}
}
