package ring

import (
	"testing"
	"time"

	"totoro/internal/ids"
)

// TestMaintenanceDetectsFailedLeaf runs the periodic leaf-set maintenance
// on every node, fails one node, and checks that its neighbors detect the
// silence, scrub it, and that routing to its keyspace lands at the next
// closest live node.
func TestMaintenanceDetectsFailedLeaf(t *testing.T) {
	c := newStaticCluster(t, 200, Config{B: 4}, 31)
	const interval = 100 * time.Millisecond
	var stops []func()
	for _, n := range c.nodes {
		stops = append(stops, n.StartMaintenance(interval))
	}
	defer func() {
		for _, s := range stops {
			s()
		}
	}()
	// Let one clean cycle establish pong baselines.
	c.net.Run(c.net.Now() + 3*interval)

	victim := c.nodes[42]
	c.net.Fail(victim.self.Addr)
	c.net.Run(c.net.Now() + 6*interval)

	// Every live node's leaf set must be free of the victim.
	for i, n := range c.nodes {
		if i == 42 {
			continue
		}
		for _, l := range n.Leafset() {
			if l.Addr == victim.self.Addr {
				t.Fatalf("node %d still lists the failed leaf", i)
			}
		}
	}

	// Routing a key owned by the victim must land at the closest live node.
	key := victim.self.ID
	want := -1
	for i, n := range c.nodes {
		if i == 42 {
			continue
		}
		if want < 0 || ids.Closer(key, n.self.ID, c.nodes[want].self.ID) {
			want = i
		}
	}
	before := len(c.apps[want].deliveries)
	c.nodes[7].Route(key, "orphaned-key")
	c.net.Run(c.net.Now() + time.Second)
	if len(c.apps[want].deliveries) != before+1 {
		t.Fatal("key owned by the failed node not re-homed to the closest live node")
	}
}

// TestMaintenanceStops verifies the cancel function ends the loop.
func TestMaintenanceStops(t *testing.T) {
	c := newStaticCluster(t, 30, Config{B: 4}, 32)
	stop := c.nodes[0].StartMaintenance(50 * time.Millisecond)
	c.net.Run(c.net.Now() + 200*time.Millisecond)
	stop()
	c.net.RunUntilIdle() // must terminate: no periodic timer left
	if c.net.Step() {
		t.Fatal("an event still pending after stop")
	}
}

// TestMaintenanceQuietOnHealthyRing confirms probing does not evict live
// leaves.
func TestMaintenanceQuietOnHealthyRing(t *testing.T) {
	c := newStaticCluster(t, 100, Config{B: 4}, 33)
	sizesBefore := make([]int, len(c.nodes))
	var stops []func()
	for i, n := range c.nodes {
		sizesBefore[i] = len(n.Leafset())
		stops = append(stops, n.StartMaintenance(60*time.Millisecond))
	}
	c.net.Run(c.net.Now() + 500*time.Millisecond)
	for _, s := range stops {
		s()
	}
	for i, n := range c.nodes {
		if len(n.Leafset()) < sizesBefore[i] {
			t.Fatalf("node %d lost live leaves: %d -> %d", i, sizesBefore[i], len(n.Leafset()))
		}
	}
}

// A maintenance tick over a full leaf set, with every probe answered,
// allocates nothing once the first tick has made the probe bookkeeping:
// the Ping and the Pong are boxed once per node, and the tick walks the
// leaf set in place.
func TestMaintenanceTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c := newStaticCluster(t, 300, Config{B: 4}, 34)
	n := c.nodes[0]
	if len(n.leafCW) != leafHalf || len(n.leafCCW) != leafHalf {
		t.Fatalf("leaf set %d+%d, want full halves of %d", len(n.leafCW), len(n.leafCCW), leafHalf)
	}
	tick := func() {
		n.maintainOnce()
		c.net.RunUntilIdle()
	}
	tick()
	if allocs := testing.AllocsPerRun(20, tick); allocs != 0 {
		t.Fatalf("a maintenance tick allocated %.1f times", allocs)
	}
	if len(n.Leafset()) != 2*leafHalf {
		t.Fatalf("answered probes cost leaves: %d left", len(n.Leafset()))
	}
}
