package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/transport"
)

// Routing state holds contacts by reference: BuildStatic's slots point into
// one fleet-wide array, so a slot of one node shares its cell with slots of
// many others, and run-time contacts take cells from node-owned chunks.
// These tests hold the sharing to its rules: a cell never changes once a
// slot points at it, and what the cells cost stays small and bounded.

// routingSnapshot is a node's rows and halves by value.
func routingSnapshot(n *Node) string {
	var out []byte
	for r, row := range n.rt {
		for col, c := range row {
			if c != nil {
				out = fmt.Appendf(out, "%d/%d=%v ", r, col, *c)
			}
		}
	}
	for _, half := range [][]*Contact{n.leafCW, n.leafCCW} {
		out = append(out, '|')
		for _, c := range half {
			out = fmt.Appendf(out, "%v ", *c)
		}
	}
	return string(out)
}

// One node's removals and re-insertions — contacts coming back unchanged,
// under a new ID, and never seen before — leave every other node's routing
// state as it was.
func TestSharedCellsDoNotAlias(t *testing.T) {
	const size, cycles = 2000, 2000
	rng := rand.New(rand.NewSource(47))
	nodes := population(size, 4, false, rng)
	BuildStatic(nodes, rng)
	before := make([]string, size)
	for i, n := range nodes {
		before[i] = routingSnapshot(n)
	}
	churned := nodes[0]
	for i := range cycles {
		known := churned.knownContacts()
		gone := known[rng.Intn(len(known))]
		churned.RemoveContact(gone.Addr)
		back := gone
		switch i % 3 {
		case 1: // the same address under a new ID, as after a re-key
			back.ID = ids.Random(rng)
		case 2: // a member it never held, or a stranger
			back = nodes[1+rng.Intn(size-1)].self
			if rng.Intn(2) == 0 {
				back = Contact{ID: ids.Random(rng), Addr: transport.Addr(fmt.Sprintf("stranger%d", i))}
			}
		}
		addContact(churned, back)
	}
	if after := routingSnapshot(churned); after == before[0] {
		t.Fatal("the churned node's routing state never changed")
	}
	for i, n := range nodes[1:] {
		if got := routingSnapshot(n); got != before[i+1] {
			t.Fatalf("node %s changed while another node churned:\nbefore %s\nafter  %s", n.self.Addr, before[i+1], got)
		}
	}
}

// liveHeap is the heap in use after a collection; the second one frees what
// the first left in sync.Pool victim caches.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A static fleet's rows, halves and cells retain under 1 KiB a node (with a
// 32-byte Contact in each slot they retained 3.1 KiB at 50k nodes). A node that
// learns contacts at run time allocates a chunk per cellChunk of them, and
// however long it churns it retains at most a chunk per slot it holds.
func TestRoutingStateFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const size = 20000
	rng := rand.New(rand.NewSource(48))
	nodes := population(size, 4, false, rng)
	base := liveHeap()
	BuildStatic(nodes, rng)
	perNode := (float64(liveHeap()) - float64(base)) / size
	runtime.KeepAlive(nodes)
	t.Logf("static routing state: %.0f B a node", perNode)
	if perNode > 1024 {
		t.Errorf("static routing state retains %.0f B a node, want at most 1024", perNode)
	}
	nodes = nil

	// A fresh node learns ever closer successors: each one takes a cell and
	// pushes the farthest out of the clockwise half.
	const inserts = 10000
	self := Contact{ID: ids.ID{Hi: 0x0123456789abcdef, Lo: 1 << 40}, Addr: "self"}
	n := New(stubEnv{reg: obs.New(0)}, self, Config{B: 4})
	learned := make([]Contact, inserts)
	for i := range learned {
		learned[i] = Contact{ID: ids.ID{Hi: self.ID.Hi, Lo: self.ID.Lo + uint64(inserts-i)}, Addr: transport.Addr(fmt.Sprintf("c%d", i))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range learned {
		n.considerContact(c)
	}
	runtime.ReadMemStats(&after)
	if *n.leafCW[0] != learned[inserts-1] {
		t.Fatalf("the closest successor is %v, want %v", *n.leafCW[0], learned[inserts-1])
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > inserts/8 {
		t.Errorf("%d inserts allocated %d times, want at most one chunk per 8", inserts, allocs)
	}
	slots := len(n.leafCW) + len(n.leafCCW) + rtEntries(n)
	bound := uint64(slots)*uint64(unsafe.Sizeof([cellChunk]Contact{})) + uint64(len(n.rt))*uint64(unsafe.Sizeof([16]*Contact{})) + 4096
	withNode := liveHeap()
	runtime.KeepAlive(n)
	retained := int64(withNode) - int64(liveHeap())
	runtime.KeepAlive(learned)
	t.Logf("%d inserts: %d allocations, %d B retained for %d slots", inserts, after.Mallocs-before.Mallocs, retained, slots)
	if retained > int64(bound) {
		t.Errorf("%d inserts left %d B retained, want at most a chunk per slot (%d B)", inserts, retained, bound)
	}
}
