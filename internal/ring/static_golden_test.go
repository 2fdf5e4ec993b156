package ring

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/transport"
)

// stubEnv is the least a Node needs to be constructed and statically wired:
// BuildStatic sends nothing and arms no timers.
type stubEnv struct{ reg *obs.Registry }

func (stubEnv) Self() transport.Addr                        { return transport.None }
func (stubEnv) Now() time.Duration                          { return 0 }
func (stubEnv) Send(transport.Addr, any)                    {}
func (stubEnv) After(time.Duration, func()) (cancel func()) { return func() {} }
func (stubEnv) Rand() *rand.Rand                            { return nil }
func (e stubEnv) Metrics() *obs.Registry                    { return e.reg }

// population builds n unwired nodes. Zoned IDs carry 8 zone bits from a
// handful of zones, so the leading digits are shared by everyone (the "all
// share this digit, descend" rows) and one zone holds a single node.
func population(n, b int, zoned bool, rng *rand.Rand) []*Node {
	cfg := Config{B: b}
	env := stubEnv{reg: obs.New(0)}
	nodes := make([]*Node, n)
	for i := range nodes {
		id := ids.Random(rng)
		if zoned {
			zone := uint64(i % 3)
			if i == 0 {
				zone = 200
			}
			id = ids.MakeZoned(zone, 8, id)
		}
		nodes[i] = New(env, Contact{ID: id, Addr: transport.Addr(fmt.Sprintf("n%d", i))}, cfg)
	}
	return nodes
}

// overlayDigest hashes everything BuildStatic decides: every node's routing
// table (its depth and each entry's row, column and contact), both leaf
// halves in order and the joined flag, plus the next value of rng — which
// pins how many draws the build made.
func overlayDigest(nodes []*Node, rng *rand.Rand) string {
	h := fnv.New64a()
	num := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	contact := func(c Contact) {
		num(c.ID.Hi)
		num(c.ID.Lo)
		h.Write([]byte(c.Addr))
		h.Write([]byte{0})
	}
	for _, n := range nodes {
		contact(n.self)
		num(uint64(len(n.rt)))
		for r, row := range n.rt {
			for col, c := range row {
				if !c.IsZero() {
					num(uint64(r))
					num(uint64(col))
					contact(c)
				}
			}
		}
		for _, half := range [][]Contact{n.leafCW, n.leafCCW} {
			num(uint64(len(half)))
			for _, c := range half {
				contact(c)
			}
		}
		if n.joined {
			num(1)
		} else {
			num(0)
		}
	}
	num(uint64(rng.Int63()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenOverlays were pinned by running this test on the insert-by-insert
// BuildStatic that preceded the one in static.go (the commit before PR 15).
// Any change to a routing table, a leaf set or the rng draw sequence shows
// up here — and would move every simulated run's results.
var goldenOverlays = map[string]string{
	"n1/b3/zoned=false":     "3f1d7c1d10245515",
	"n1/b3/zoned=true":      "d4f3500fdcbcd597",
	"n1/b4/zoned=false":     "ace4150562c951a0",
	"n1/b4/zoned=true":      "549c8dfd14f21c9d",
	"n1/b5/zoned=false":     "92ed9537fdf83089",
	"n1/b5/zoned=true":      "755e620f135a6a54",
	"n2/b3/zoned=false":     "1dacfb04f89ac073",
	"n2/b3/zoned=true":      "82dcfa8072bd6f74",
	"n2/b4/zoned=false":     "a0a6234c490f25e5",
	"n2/b4/zoned=true":      "e5077d37195b3c8e",
	"n2/b5/zoned=false":     "ab688575933c6ea6",
	"n2/b5/zoned=true":      "84d8ed57e6d56be4",
	"n3/b3/zoned=false":     "dfae452ca178ddd1",
	"n3/b3/zoned=true":      "cd8e2916e3f80062",
	"n3/b4/zoned=false":     "6966c98070af5c39",
	"n3/b4/zoned=true":      "46bcdb8f65370f69",
	"n3/b5/zoned=false":     "be1faf3c7f04f8ec",
	"n3/b5/zoned=true":      "e4617c0f7dc01222",
	"n12/b3/zoned=false":    "717adb7eb1664fa2",
	"n12/b3/zoned=true":     "98bb41a4899cd9af",
	"n12/b4/zoned=false":    "b4af06b5e0686ef8",
	"n12/b4/zoned=true":     "df238edfa86b601b",
	"n12/b5/zoned=false":    "4cbe137088496676",
	"n12/b5/zoned=true":     "b85ae2d143579026",
	"n24/b3/zoned=false":    "305c6c0ef5316123",
	"n24/b3/zoned=true":     "d33b973f71810569",
	"n24/b4/zoned=false":    "7608b9cdee6da960",
	"n24/b4/zoned=true":     "f5c20cde60651158",
	"n24/b5/zoned=false":    "d0adfb2810bad21a",
	"n24/b5/zoned=true":     "860c74924bba4d72",
	"n25/b3/zoned=false":    "a8d6a4649aab27f5",
	"n25/b3/zoned=true":     "a9b18645ded3bfb4",
	"n25/b4/zoned=false":    "1581377f6cdb411c",
	"n25/b4/zoned=true":     "79286a37d6e5befa",
	"n25/b5/zoned=false":    "e81c53410fd54005",
	"n25/b5/zoned=true":     "1952a790bb2552be",
	"n26/b3/zoned=false":    "bf3d682cd1c88044",
	"n26/b3/zoned=true":     "df8e70ec1de798cf",
	"n26/b4/zoned=false":    "7f2c72b6e3cd28af",
	"n26/b4/zoned=true":     "c08be66f82ba93a0",
	"n26/b5/zoned=false":    "acccb6fbacab91f3",
	"n26/b5/zoned=true":     "ea663cc8aca29779",
	"n60/b3/zoned=false":    "8413bd7539ab58ef",
	"n60/b3/zoned=true":     "46ac0484e0a10861",
	"n60/b4/zoned=false":    "e6297ac58748c5a6",
	"n60/b4/zoned=true":     "5a6703204380aaa4",
	"n60/b5/zoned=false":    "f66672d01e03dcfc",
	"n60/b5/zoned=true":     "d98effb7bb8b5b1d",
	"n1000/b3/zoned=false":  "e22b4e6abaf31461",
	"n1000/b3/zoned=true":   "16a51757e5ddc2db",
	"n1000/b4/zoned=false":  "8401d0fe856d8123",
	"n1000/b4/zoned=true":   "2dd9399218d7928e",
	"n1000/b5/zoned=false":  "f1a2f901a167d358",
	"n1000/b5/zoned=true":   "70dddfc63b8313ba",
	"n20000/b3/zoned=false": "2e40e6214bfe4b25",
	"n20000/b3/zoned=true":  "4c6aaae03e013ca0",
	"n20000/b4/zoned=false": "f8500a8d735b93a1",
	"n20000/b4/zoned=true":  "b8674c3198837656",
	"n20000/b5/zoned=false": "7d7c3089cf4da656",
	"n20000/b5/zoned=true":  "3e98810b030ab3f3",
}

func TestBuildStaticGolden(t *testing.T) {
	for _, n := range []int{1, 2, 3, 12, 24, 25, 26, 60, 1000, 20000} {
		if n > 1000 && (testing.Short() || raceEnabled) {
			continue // seconds plain, most of a minute under the race detector
		}
		for _, b := range []int{3, 4, 5} {
			for _, zoned := range []bool{false, true} {
				name := fmt.Sprintf("n%d/b%d/zoned=%t", n, b, zoned)
				rng := rand.New(rand.NewSource(int64(n*100 + b)))
				nodes := population(n, b, zoned, rng)
				BuildStatic(nodes, rng)
				if got := overlayDigest(nodes, rng); got != goldenOverlays[name] {
					t.Errorf("%q: %q, // pinned %q", name, got, goldenOverlays[name])
				}
			}
		}
	}
}

// Wiring sets state rather than merging into it: wiring an already wired
// population again, with the same draws, changes nothing.
func TestBuildStaticRewireIsIdempotent(t *testing.T) {
	for _, n := range []int{3, 24, 26, 1000} {
		for _, zoned := range []bool{false, true} {
			nodes := population(n, 4, zoned, rand.New(rand.NewSource(5)))
			BuildStatic(nodes, rand.New(rand.NewSource(9)))
			first := overlayDigest(nodes, rand.New(rand.NewSource(0)))
			BuildStatic(nodes, rand.New(rand.NewSource(9)))
			if again := overlayDigest(nodes, rand.New(rand.NewSource(0))); again != first {
				t.Fatalf("n=%d zoned=%t: digest %s after the first wiring, %s after the second", n, zoned, first, again)
			}
		}
	}
}

// Wiring allocates what the nodes keep and next to nothing else: per node
// two leaf halves, the table's outer slice and one slice per populated row;
// per build the ring-order array, the cut scratch and the recursion's closure.
func TestBuildStaticAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const size, runs = 2000, 2
	rng := rand.New(rand.NewSource(11))
	var pops [runs + 1][]*Node // AllocsPerRun calls once more, to warm up
	for i := range pops {
		pops[i] = population(size, 4, false, rng)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		BuildStatic(pops[next], rng)
		next++
	})
	rows := 0 // of an average measured population
	for _, pop := range pops[1:] {
		for _, n := range pop {
			for _, row := range n.rt {
				if row != nil {
					rows++
				}
			}
		}
	}
	rows /= runs
	if budget := float64(rows + 3*size + 8); got > budget {
		t.Fatalf("BuildStatic(%d nodes, %d rows) made %.0f allocations, budget %.0f", size, rows, got, budget)
	}
	t.Logf("%.0f allocations for %d nodes and %d rows", got, size, rows)
}

// BenchmarkBuildStatic wires a fresh population per iteration, as a cluster
// construction does.
func BenchmarkBuildStatic(b *testing.B) {
	for _, size := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rng := rand.New(rand.NewSource(1))
				nodes := population(size, 4, false, rng)
				b.StartTimer()
				BuildStatic(nodes, rng)
			}
		})
	}
}
