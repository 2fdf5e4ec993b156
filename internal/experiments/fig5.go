package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"totoro"
	"totoro/internal/eua"
	"totoro/internal/ids"
	"totoro/internal/multiring"
	"totoro/internal/ring"
)

// ZoneRow is one edge zone produced by distributed binning (Fig 5a).
type ZoneRow struct {
	Zone     uint64
	Members  int
	Diameter time.Duration
}

// Fig5aZones runs Ratnasamy–Shenker distributed binning over the EUA node
// population and reports the resulting edge zones with their diameters
// (maximum desired RTT), reproducing Fig 5a's zone structure.
func Fig5aZones(o Options) []ZoneRow {
	rng := rand.New(rand.NewSource(o.Seed))
	n := eua.Total
	if o.Short {
		n = 5000
	}
	pos, _ := eua.GenerateScaled(n, rng)
	levels := []time.Duration{40 * time.Millisecond, 120 * time.Millisecond}
	b := multiring.AssignZones(pos, eua.Landmarks(), levels, 5)
	zones := make([]uint64, 0, b.NumZones())
	for z := range b.Members {
		zones = append(zones, z)
	}
	sort.Slice(zones, func(i, j int) bool { return zones[i] < zones[j] })
	out := make([]ZoneRow, 0, len(zones))
	for _, z := range zones {
		out = append(out, ZoneRow{Zone: z, Members: len(b.Members[z]), Diameter: b.Diameter[z]})
	}
	return out
}

// MasterLoadRow is one bucket of the Fig 5b distribution: how many nodes
// are the root (master) of exactly K trees.
type MasterLoadRow struct {
	MastersPerNode int
	Nodes          int
}

// Fig5bResult is the Fig 5b outcome.
type Fig5bResult struct {
	Rows []MasterLoadRow
	// FracAtMost3 is the fraction of nodes rooting ≤ 3 trees; the paper
	// reports 99.5% for 500 trees over 1000 nodes.
	FracAtMost3 float64
	MaxMasters  int
}

// Fig5bMasterDistribution creates 500 dataflow trees over a 1000-node edge
// zone (stress test of §7.2) and reports the distribution of masters per
// node.
func Fig5bMasterDistribution(o Options) Fig5bResult {
	nodes, trees := 1000, 500
	if o.Short {
		nodes, trees = 300, 150
	}
	f := newForest(totoro.ClusterConfig{N: nodes, Ring: ring.Config{B: 4}, Seed: o.Seed})
	for t := 0; t < trees; t++ {
		topic := ids.Hash("fig5b-app", fmt.Sprint(t))
		f.Engines[f.Rand().Intn(len(f.Engines))].PubSub().Create(topic)
	}
	f.Net.RunUntilIdle()
	hist := map[int]int{}
	maxM := 0
	atMost3 := 0
	for _, e := range f.Engines {
		rc := e.PubSub().RootCount()
		hist[rc]++
		if rc > maxM {
			maxM = rc
		}
		if rc <= 3 {
			atMost3++
		}
	}
	res := Fig5bResult{
		FracAtMost3: float64(atMost3) / float64(nodes),
		MaxMasters:  maxM,
	}
	for k := 0; k <= maxM; k++ {
		if hist[k] > 0 {
			res.Rows = append(res.Rows, MasterLoadRow{MastersPerNode: k, Nodes: hist[k]})
		}
	}
	return res
}

// ZoneWorkloadRow is one zone of Fig 5c: masters scale with the zone's
// workload (apps ∝ population density).
type ZoneWorkloadRow struct {
	Zone                uint64
	Nodes               int
	Apps                int
	DistinctMasterNodes int
	MaxMastersPerNode   int
}

// Fig5cMastersPerZone assigns each EUA-derived zone a number of FL
// applications proportional to its population (dense topologies get heavy
// workloads) and shows that masters spread across each zone in proportion.
func Fig5cMastersPerZone(o Options) []ZoneWorkloadRow {
	rng := rand.New(rand.NewSource(o.Seed))
	sample := 2000
	if o.Short {
		sample = 600
	}
	pos, _ := eua.GenerateScaled(sample, rng)
	bin := multiring.AssignZones(pos, eua.Landmarks(), nil, 4)

	// One overlay whose node IDs carry their zone prefix; zonal AppIDs then
	// rendezvous inside their own zone.
	const zoneBits = 4
	f := newForest(totoro.ClusterConfig{
		N:        len(pos),
		Ring:     ring.Config{B: 4},
		Seed:     o.Seed,
		ZoneBits: zoneBits,
		ZoneOf:   func(i int) uint64 { return bin.ZoneOf[i] },
	})
	// Zones in sorted order: the RNG draws below consume a shared stream,
	// so iteration order decides which node hosts each app.
	zoneOrder := make([]uint64, 0, len(bin.Members))
	for z := range bin.Members {
		zoneOrder = append(zoneOrder, z)
	}
	sort.Slice(zoneOrder, func(i, j int) bool { return zoneOrder[i] < zoneOrder[j] })
	appsPerZone := map[uint64]int{}
	for _, z := range zoneOrder {
		members := bin.Members[z]
		apps := (len(members) + 49) / 50 // 1 app per ~50 nodes
		appsPerZone[z] = apps
		for a := 0; a < apps; a++ {
			topic := ids.MakeZoned(z, zoneBits, ids.Hash("fig5c-app", fmt.Sprint(z), fmt.Sprint(a)))
			f.Engines[members[f.Rand().Intn(len(members))]].PubSub().Create(topic)
		}
	}
	f.Net.RunUntilIdle()

	// Count masters per zone.
	type zstat struct {
		masters map[int]int
	}
	stats := map[uint64]*zstat{}
	for i, e := range f.Engines {
		rc := e.PubSub().RootCount()
		if rc == 0 {
			continue
		}
		z := bin.ZoneOf[i]
		st, ok := stats[z]
		if !ok {
			st = &zstat{masters: map[int]int{}}
			stats[z] = st
		}
		st.masters[i] = rc
	}
	zones := make([]uint64, 0, len(bin.Members))
	for z := range bin.Members {
		zones = append(zones, z)
	}
	// Dense→sparse, ties by zone ID: zones come out of a map, so an order
	// on member count alone changes from run to run.
	sort.Slice(zones, func(i, j int) bool {
		ni, nj := len(bin.Members[zones[i]]), len(bin.Members[zones[j]])
		if ni != nj {
			return ni > nj
		}
		return zones[i] < zones[j]
	})
	var out []ZoneWorkloadRow
	for _, z := range zones {
		row := ZoneWorkloadRow{Zone: z, Nodes: len(bin.Members[z]), Apps: appsPerZone[z]}
		if st, ok := stats[z]; ok {
			row.DistinctMasterNodes = len(st.masters)
			for _, c := range st.masters {
				if c > row.MaxMastersPerNode {
					row.MaxMastersPerNode = c
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// TreeLevelRow is one (tree, level) cell of Fig 5d.
type TreeLevelRow struct {
	Tree  int
	Level int
	Nodes int
}

// Fig5dTreeBalance builds 17 dataflow trees with fanout 8 over 1946 edge
// nodes (the paper's three most popular topologies) and reports how many
// nodes sit at each tree level — the branch-balance picture of Fig 5d.
func Fig5dTreeBalance(o Options) []TreeLevelRow {
	nodes, trees := 1946, 17
	if o.Short {
		nodes, trees = 500, 8
	}
	f := newForest(totoro.ClusterConfig{N: nodes, Ring: ring.Config{B: 3}, Seed: o.Seed})
	var out []TreeLevelRow
	for t := 0; t < trees; t++ {
		topic := ids.Hash("fig5d-app", fmt.Sprint(t))
		// Random tree sizes give the paper's random depth range.
		size := 50 + f.Rand().Intn(nodes/2)
		f.subscribeDistinct(topic, size)
		for lvl, cnt := range f.treeLevels(topic) {
			out = append(out, TreeLevelRow{Tree: t, Level: lvl, Nodes: cnt})
		}
	}
	return out
}
