package multiring

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

func TestRTTSymmetricAndMonotone(t *testing.T) {
	a, b, c := Point{0, 0}, Point{3, 4}, Point{30, 40}
	if RTT(a, b) != RTT(b, a) {
		t.Fatal("RTT not symmetric")
	}
	if RTT(a, b) >= RTT(a, c) {
		t.Fatal("RTT not monotone in distance")
	}
	if RTT(a, a) != 0 {
		t.Fatal("self RTT not zero")
	}
}

func TestBinSignatureClustersTogether(t *testing.T) {
	landmarks := []Point{{0, 0}, {100, 0}, {0, 100}}
	levels := []time.Duration{2 * time.Millisecond, 6 * time.Millisecond}
	// Two nearby points: same signature. A far point: different.
	s1 := BinSignature(Point{10, 10}, landmarks, levels)
	s2 := BinSignature(Point{11, 9}, landmarks, levels)
	s3 := BinSignature(Point{90, 90}, landmarks, levels)
	if s1 != s2 {
		t.Fatalf("nearby points binned apart: %q vs %q", s1, s2)
	}
	if s1 == s3 {
		t.Fatalf("distant point binned together: %q", s1)
	}
}

func clusteredPositions(rng *rand.Rand, centers []Point, perCluster int, spread float64) []Point {
	var out []Point
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			out = append(out, Point{
				X: c.X + rng.NormFloat64()*spread,
				Y: c.Y + rng.NormFloat64()*spread,
			})
		}
	}
	return out
}

func TestAssignZonesSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := []Point{{0, 0}, {200, 0}, {0, 200}, {200, 200}}
	positions := clusteredPositions(rng, centers, 50, 3)
	// Asymmetric landmarks so no cluster sits on a landmark-ordering tie.
	landmarks := []Point{{10, 20}, {150, 40}, {60, 180}}
	levels := []time.Duration{4 * time.Millisecond, 40 * time.Millisecond}
	b := AssignZones(positions, landmarks, levels, 4)
	if b.NumZones() < 2 {
		t.Fatalf("expected multiple zones, got %d", b.NumZones())
	}
	// All members of one geographic cluster should share a zone.
	for c := 0; c < len(centers); c++ {
		zone := b.ZoneOf[c*50]
		for i := 1; i < 50; i++ {
			if b.ZoneOf[c*50+i] != zone {
				t.Fatalf("cluster %d split across zones", c)
			}
		}
	}
}

func TestAssignZonesRespectsMBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Many scattered points produce many bins; with mBits=2 they must be
	// merged into at most 4 zones.
	positions := make([]Point, 300)
	for i := range positions {
		positions[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	landmarks := []Point{{0, 0}, {1000, 0}, {0, 1000}, {1000, 1000}}
	levels := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond}
	b := AssignZones(positions, landmarks, levels, 2)
	if b.NumZones() > 4 {
		t.Fatalf("zones=%d exceeds 2^2", b.NumZones())
	}
	for i := range positions {
		if b.ZoneOf[i] >= 4 {
			t.Fatalf("node %d in out-of-range zone %d", i, b.ZoneOf[i])
		}
	}
}

func TestDiameterTracksSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tight := clusteredPositions(rng, []Point{{0, 0}}, 40, 1)
	loose := clusteredPositions(rng, []Point{{0, 0}}, 40, 20)
	dt := estimateDiameter(tight, seqInts(40))
	dl := estimateDiameter(loose, seqInts(40))
	if dt >= dl {
		t.Fatalf("tight diameter %v >= loose %v", dt, dl)
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// --- two-level routing ---

type mrCluster struct {
	net       *simnet.Network
	nodes     []*Node
	delivered map[transport.Addr][]Packet
	rng       *rand.Rand
	mBits     int
}

// newMRCluster builds zonesN zones with perZone members each.
func newMRCluster(t testing.TB, zonesN, perZone, mBits int, seed int64) *mrCluster {
	t.Helper()
	c := &mrCluster{
		net:       simnet.New(simnet.Config{Seed: seed}),
		delivered: make(map[transport.Addr][]Packet),
		rng:       rand.New(rand.NewSource(seed)),
		mBits:     mBits,
	}
	for z := 0; z < zonesN; z++ {
		for i := 0; i < perZone; i++ {
			addr := transport.Addr(fmt.Sprintf("z%d-n%d", z, i))
			id := ids.MakeZoned(uint64(z), mBits, ids.Random(c.rng))
			var node *Node
			c.net.AddNode(addr, func(e transport.Env) transport.Handler {
				node = NewNode(e, ring.Contact{ID: id, Addr: addr}, Config{MBits: mBits},
					func(p Packet) { c.delivered[addr] = append(c.delivered[addr], p) })
				return node
			})
			c.nodes = append(c.nodes, node)
		}
	}
	BuildStatic(c.nodes, c.rng)
	return c
}

func TestIntraZoneRoutingFindsOwner(t *testing.T) {
	c := newMRCluster(t, 4, 60, 4, 10)
	for trial := 0; trial < 100; trial++ {
		src := c.nodes[c.rng.Intn(len(c.nodes))]
		// Key within the source's own zone.
		key := ids.MakeZoned(src.Zone(), c.mBits, ids.Random(c.rng))
		want := OwnerWithinZone(c.nodes, key, c.mBits)
		before := len(c.delivered[want.self.Addr])
		src.Route(key, ScopeZonal, trial)
		c.net.RunUntilIdle()
		if len(c.delivered[want.self.Addr]) != before+1 {
			t.Fatalf("trial %d: intra-zone key not delivered to owner", trial)
		}
	}
}

func TestIntraZoneNeverLeavesZone(t *testing.T) {
	c := newMRCluster(t, 4, 60, 4, 11)
	src := c.nodes[0]
	for trial := 0; trial < 50; trial++ {
		key := ids.MakeZoned(src.Zone(), c.mBits, ids.Random(c.rng))
		src.Route(key, ScopeZonal, trial)
	}
	c.net.RunUntilIdle()
	// No node outside zone 0 may have received anything.
	for addr, pkts := range c.delivered {
		for _, n := range c.nodes {
			if n.self.Addr == addr && n.Zone() != src.Zone() && len(pkts) > 0 {
				t.Fatalf("zone-%d node %s received intra-zone traffic", n.Zone(), addr)
			}
		}
	}
	for _, n := range c.nodes {
		if n.Zone() != src.Zone() && n.Forwarded() > 0 {
			t.Fatalf("node %s in zone %d forwarded intra-zone traffic", n.self.Addr, n.Zone())
		}
	}
}

func TestCrossZoneGlobalRouting(t *testing.T) {
	c := newMRCluster(t, 8, 40, 4, 12)
	for trial := 0; trial < 100; trial++ {
		src := c.nodes[c.rng.Intn(len(c.nodes))]
		destZone := uint64(c.rng.Intn(8))
		key := ids.MakeZoned(destZone, c.mBits, ids.Random(c.rng))
		want := OwnerWithinZone(c.nodes, key, c.mBits)
		before := len(c.delivered[want.self.Addr])
		src.Route(key, ScopeGlobal, trial)
		c.net.RunUntilIdle()
		if len(c.delivered[want.self.Addr]) != before+1 {
			t.Fatalf("trial %d: cross-zone key (zone %d) not delivered", trial, destZone)
		}
		p := c.delivered[want.self.Addr][before]
		if p.Hops > c.mBits+12 {
			t.Fatalf("trial %d: %d hops is excessive", trial, p.Hops)
		}
	}
}

func TestZonalPacketBlockedAtBoundary(t *testing.T) {
	c := newMRCluster(t, 4, 30, 4, 13)
	src := c.nodes[0]
	otherZone := (src.Zone() + 1) % 4
	key := ids.MakeZoned(otherZone, c.mBits, ids.Random(c.rng))
	src.Route(key, ScopeZonal, "leak?")
	c.net.RunUntilIdle()
	if src.Blocked() != 1 {
		t.Fatalf("Blocked=%d want 1", src.Blocked())
	}
	total := 0
	for _, pkts := range c.delivered {
		total += len(pkts)
	}
	if total != 0 {
		t.Fatalf("zonal packet escaped: %d deliveries", total)
	}
}

func TestSingleMemberZoneDeliversLocally(t *testing.T) {
	c := newMRCluster(t, 1, 1, 4, 15)
	n := c.nodes[0]
	key := ids.MakeZoned(n.Zone(), c.mBits, ids.Random(c.rng))
	n.Route(key, ScopeZonal, "solo")
	c.net.RunUntilIdle()
	if len(c.delivered[n.self.Addr]) != 1 {
		t.Fatal("singleton zone did not deliver locally")
	}
}

func TestZoneDistWraps(t *testing.T) {
	if zoneDist(3, 1, 2) != 2 {
		t.Fatalf("zoneDist(3,1,2)=%d", zoneDist(3, 1, 2))
	}
	if zoneDist(1, 3, 2) != 2 {
		t.Fatalf("zoneDist(1,3,2)=%d", zoneDist(1, 3, 2))
	}
	if zoneDist(5, 5, 4) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestHopsScaleWithZoneCount(t *testing.T) {
	// With more zones, cross-zone routing uses more level-1 hops but stays
	// bounded by m (the paper's m·O(logN) claim).
	c := newMRCluster(t, 16, 20, 4, 16)
	worst := 0
	for trial := 0; trial < 80; trial++ {
		src := c.nodes[c.rng.Intn(len(c.nodes))]
		destZone := uint64(c.rng.Intn(16))
		key := ids.MakeZoned(destZone, c.mBits, ids.Random(c.rng))
		want := OwnerWithinZone(c.nodes, key, c.mBits)
		before := len(c.delivered[want.self.Addr])
		src.Route(key, ScopeGlobal, trial)
		c.net.RunUntilIdle()
		p := c.delivered[want.self.Addr][before]
		if p.Hops > worst {
			worst = p.Hops
		}
	}
	// Zone hops <= mBits=4 plus intra-zone Chord hops <= ~log2(20)+slack.
	if worst > 4+8 {
		t.Fatalf("worst-case hops %d exceeds the two-level bound", worst)
	}
}
