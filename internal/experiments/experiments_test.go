package experiments

import (
	"sort"
	"testing"

	"totoro"
	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/ring"
)

// TestRingPathReconstructedFromTrace routes one message across the forest
// and rebuilds its full node-by-node path from the hop-trace records in the
// merged telemetry timeline: every hop recorded an event, the hops chain
// (each hop's To is the next hop's Node), and the chain ends at the node
// that logged the delivery.
func TestRingPathReconstructedFromTrace(t *testing.T) {
	f := newForest(totoro.ClusterConfig{N: 60, Ring: ring.Config{B: 2}, Seed: 99})
	key := ids.Hash("trace-path", "probe")
	src := f.Engines[0]
	src.Ring().Route(key, nil)
	f.Net.RunUntilIdle()

	path := ringPath(f.Net.MergedTrace(), key.String())
	if len(path) == 0 {
		t.Fatal("no trace events recorded for the routed key")
	}
	last := path[len(path)-1]
	if last.Kind != obs.KindRingDeliver {
		t.Fatalf("path does not end in a delivery: %v", path)
	}
	for i := 0; i < len(path)-1; i++ {
		if path[i].Kind != obs.KindRingHop {
			t.Fatalf("interior event %d is %s, want ring.hop: %v", i, path[i].Kind, path)
		}
		if path[i].To != path[i+1].Node {
			t.Fatalf("hop chain broken at %d (%s -> %s, next node %s): %v",
				i, path[i].Node, path[i].To, path[i+1].Node, path)
		}
	}
	if path[0].Node != string(src.Self().Addr) && len(path) > 1 {
		t.Fatalf("path does not start at the source: %v", path)
	}
	if last.Hop != len(path)-1 {
		t.Fatalf("delivery hop count %d != %d recorded hops: %v",
			last.Hop, len(path)-1, path)
	}
}

// ringPath picks a routed message's path out of a merged timeline: the
// ring.hop events for key in hop order, then its ring.deliver event.
func ringPath(events []obs.Event, key string) []obs.Event {
	var hops, delivers []obs.Event
	for _, e := range events {
		switch {
		case e.Key != key:
		case e.Kind == obs.KindRingHop:
			hops = append(hops, e)
		case e.Kind == obs.KindRingDeliver:
			delivers = append(delivers, e)
		}
	}
	sort.SliceStable(hops, func(i, j int) bool { return hops[i].Hop < hops[j].Hop })
	return append(hops, delivers...)
}

func shortOpts() Options {
	o := Options{Seed: 20240422}
	o.Short = true
	return o
}

func TestFig5aZonesCoverPopulation(t *testing.T) {
	rows := Fig5aZones(shortOpts())
	if len(rows) < 4 {
		t.Fatalf("only %d zones", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Members
		if r.Members > 0 && r.Diameter <= 0 && r.Members > 1 {
			t.Fatalf("zone %d has no diameter", r.Zone)
		}
	}
	if total < 4900 {
		t.Fatalf("zones cover only %d nodes", total)
	}
}

func TestFig5bLoadBalance(t *testing.T) {
	res := Fig5bMasterDistribution(shortOpts())
	// The paper: 99.5% of nodes root ≤3 trees (500 trees / 1000 nodes =
	// 0.5 trees per node). Short mode has the same ratio.
	if res.FracAtMost3 < 0.98 {
		t.Fatalf("only %.3f of nodes root ≤3 trees", res.FracAtMost3)
	}
	total := 0
	for _, r := range res.Rows {
		total += r.Nodes
	}
	if total != 300 {
		t.Fatalf("histogram covers %d nodes", total)
	}
}

func TestFig5cMastersScaleWithWorkload(t *testing.T) {
	rows := Fig5cMastersPerZone(shortOpts())
	if len(rows) < 2 {
		t.Fatalf("zones=%d", len(rows))
	}
	// Rows are sorted dense→sparse; the densest zone must host at least as
	// many distinct master nodes as a sparse zone.
	first, last := rows[0], rows[len(rows)-1]
	if first.Apps < last.Apps {
		t.Fatal("apps not proportional to population")
	}
	if first.DistinctMasterNodes == 0 {
		t.Fatal("dense zone has no masters")
	}
	for _, r := range rows {
		if r.MaxMastersPerNode > 4 {
			t.Fatalf("zone %d concentrates %d masters on one node", r.Zone, r.MaxMastersPerNode)
		}
	}
}

func TestFig5dTreesBalanced(t *testing.T) {
	rows := Fig5dTreeBalance(shortOpts())
	// Every tree must have exactly one root and growing levels up to the
	// fanout bound.
	byTree := map[int][]int{}
	for _, r := range rows {
		for len(byTree[r.Tree]) <= r.Level {
			byTree[r.Tree] = append(byTree[r.Tree], 0)
		}
		byTree[r.Tree][r.Level] = r.Nodes
	}
	for tree, levels := range byTree {
		if levels[0] != 1 {
			t.Fatalf("tree %d has %d roots", tree, levels[0])
		}
		if len(levels) < 2 {
			t.Fatalf("tree %d has no depth", tree)
		}
	}
}

func TestFig6LinearInLogN(t *testing.T) {
	rows := Fig6Scale(shortOpts(), 4)
	if len(rows) < 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Membership grows 64×, time must grow far slower (the paper: linear in
	// log N). Allow 8× growth for 64× membership.
	first, last := rows[0], rows[len(rows)-1]
	if last.Members/first.Members < 16 {
		t.Fatal("sweep too narrow")
	}
	if last.DisseminationMs > first.DisseminationMs*8 {
		t.Fatalf("dissemination grew %v -> %v for %d× members",
			first.DisseminationMs, last.DisseminationMs, last.Members/first.Members)
	}
	if last.AggregationMs > first.AggregationMs*8 {
		t.Fatalf("aggregation grew %v -> %v", first.AggregationMs, last.AggregationMs)
	}
	for _, r := range rows {
		if r.DisseminationMs <= 0 || r.AggregationMs <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
	}
}

func TestFig6cLargerFanoutShallower(t *testing.T) {
	rows := Fig6cFanout(shortOpts())
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	if !(rows[0].Depth >= rows[1].Depth && rows[1].Depth >= rows[2].Depth) {
		t.Fatalf("depth not shrinking with fanout: %+v", rows)
	}
	if rows[2].DisseminationMs > rows[0].DisseminationMs {
		t.Fatalf("fanout 32 slower than fanout 8: %+v", rows)
	}
}

func TestFig7TrafficAmortized(t *testing.T) {
	rows := Fig7Traffic(shortOpts())
	last := rows[len(rows)-1]
	if last.Trees != 10 {
		t.Fatalf("last row trees=%d", last.Trees)
	}
	// 10× trees must cost well under 2× traffic (paper: 1.19×/1.29×).
	if last.RatioTCP > 1.8 || last.RatioUDP > 1.9 {
		t.Fatalf("traffic not amortized: TCP %.2f UDP %.2f", last.RatioTCP, last.RatioUDP)
	}
	if last.RatioTCP < 1.0 || last.RatioUDP < 1.0 {
		t.Fatalf("ratios below 1: %+v", last)
	}
	// Both ratios land in the paper's ~1.2–1.3 neighbourhood.
	if last.RatioTCP > 1.5 || last.RatioUDP > 1.5 {
		t.Fatalf("ratios too high: %+v", last)
	}
}

func TestTable3SpeedupsGrowWithApps(t *testing.T) {
	res := Table3(shortOpts())
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Group rows by task; speedup at the larger app count must exceed the
	// smaller one, and all speedups must favor Totoro.
	byTask := map[string][]Table3Row{}
	for _, r := range res.Rows {
		byTask[r.Task] = append(byTask[r.Task], r)
	}
	for task, rows := range byTask {
		last := rows[len(rows)-1]
		// At the larger concurrency, Totoro must win against both
		// baselines, and the speedup must grow with the app count (the
		// paper's crossover sits below 5 concurrent apps).
		if last.SpeedupOpenFL <= 1.0 || last.SpeedupFedScale <= 1.0 {
			t.Fatalf("%s: no speedup at apps=%d: %+v", task, last.Apps, last)
		}
		if last.SpeedupOpenFL <= rows[0].SpeedupOpenFL {
			t.Fatalf("%s: speedup did not grow with apps: %+v", task, rows)
		}
	}
	// Curves exist for each system.
	for _, key := range []string{"totoro/speech/6", "openfl/speech/6", "fedscale/speech/6"} {
		if len(res.Curves[key]) == 0 {
			t.Fatalf("missing curve %s", key)
		}
	}
}

func TestFig10TotoroLowestRegret(t *testing.T) {
	res := Fig10Regret(shortOpts())
	last := func(name string) float64 {
		c := res.Curves[name]
		return c[len(c)-1]
	}
	if !(last("totoro") < last("next-hop") && last("totoro") < last("end-to-end")) {
		t.Fatalf("regret ordering wrong: totoro=%.1f next-hop=%.1f end-to-end=%.1f",
			last("totoro"), last("next-hop"), last("end-to-end"))
	}
}

func TestFig11TotoroFindsBestFastest(t *testing.T) {
	grids := Fig11PathFrequencies(shortOpts())
	byName := map[string]FrequencyGrid{}
	for _, g := range grids {
		byName[g.Policy] = g
	}
	// The optimal policy always picks rank 0.
	opt := byName["optimal"]
	for _, row := range opt.Grid {
		if row[0] < 0.999 {
			t.Fatalf("optimal policy row %v", row)
		}
	}
	// Totoro's final-bucket best-path rate beats both baselines'.
	lastRow := func(g FrequencyGrid) float64 { return g.Grid[len(g.Grid)-1][0] }
	if lastRow(byName["totoro"]) <= lastRow(byName["end-to-end"]) {
		t.Fatalf("totoro %.2f not above end-to-end %.2f",
			lastRow(byName["totoro"]), lastRow(byName["end-to-end"]))
	}
}

func TestFig12RecoveryStable(t *testing.T) {
	rows := Fig12Recovery(shortOpts())
	for _, r := range rows {
		if r.RecoveryMs <= 0 || r.RecoveryMs > 10000 {
			t.Fatalf("recovery %v ms for %d trees", r.RecoveryMs, r.Trees)
		}
		// The repair-join count is summed straight from the nodes' telemetry
		// registries; a recovery with zero recorded repairs means the figure
		// is no longer wired to the registry.
		if r.RepairJoins <= 0 {
			t.Fatalf("trees=%d recovered with no registry-recorded repair joins: %+v", r.Trees, r)
		}
	}
	// Stability: 4× the trees may not cost 4× the recovery time.
	first, last := rows[0], rows[len(rows)-1]
	ratio := last.RecoveryMs / first.RecoveryMs
	if ratio > 3 {
		t.Fatalf("recovery scaled with trees: %.1f×", ratio)
	}
}

func TestFig13OverheadShape(t *testing.T) {
	rows := Fig13Overhead(shortOpts())
	var totoroDHT, totoroFL, openflFL float64
	for _, r := range rows {
		switch r.System + "/" + r.Phase {
		case "totoro/dht":
			totoroDHT = r.CPUSec
		case "totoro/fl":
			totoroFL = r.CPUSec
		case "openfl/fl":
			openflFL = r.CPUSec
		}
	}
	if totoroFL <= 0 || openflFL <= 0 {
		t.Fatal("missing measurements")
	}
	// DHT-related work must be a small add-on compared to FL work
	// (the paper: negligible DHT overhead).
	if totoroDHT > totoroFL {
		t.Fatalf("DHT overhead %.3fs exceeds FL work %.3fs", totoroDHT, totoroFL)
	}
}

func TestAblationInNetworkAggregation(t *testing.T) {
	rows := AblationInNetworkAggregation(shortOpts())
	for _, r := range rows {
		if r.RootBytesInTree >= r.RootBytesInDirect {
			t.Fatalf("in-network aggregation did not reduce root ingress: %+v", r)
		}
	}
	// Direct ingress grows linearly with members; tree ingress stays flat.
	first, last := rows[0], rows[len(rows)-1]
	growthDirect := float64(last.RootBytesInDirect) / float64(first.RootBytesInDirect)
	growthTree := float64(last.RootBytesInTree) / float64(first.RootBytesInTree)
	if growthTree > growthDirect/1.5 {
		t.Fatalf("tree ingress grew %.2f× vs direct %.2f×", growthTree, growthDirect)
	}
}

func TestAblationMultiRingIsolation(t *testing.T) {
	rows := AblationMultiRing(shortOpts())
	byScheme := map[string]MultiRingAblationRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	mr, flat := byScheme["multi-ring"], byScheme["flat-ring"]
	if mr.CrossZoneShare >= flat.CrossZoneShare {
		t.Fatalf("multi-ring cross-zone share %.3f not below flat %.3f",
			mr.CrossZoneShare, flat.CrossZoneShare)
	}
	if mr.CrossZoneShare > 0.05 {
		t.Fatalf("multi-ring leaks %.1f%% of traffic across zones", mr.CrossZoneShare*100)
	}
}

func TestAblationFedProxRuns(t *testing.T) {
	rows := AblationFedProx(shortOpts())
	for _, r := range rows {
		if r.FedAvgAcc <= 0 || r.FedProxAcc <= 0 {
			t.Fatalf("degenerate accuracies: %+v", r)
		}
	}
}

func TestAblationAdaptiveRelay(t *testing.T) {
	rows := AblationAdaptiveRelay(shortOpts())
	byPolicy := map[string]RelayRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		if r.Delivered == 0 {
			t.Fatalf("%s delivered nothing", r.Policy)
		}
	}
	tot, greedy := byPolicy["totoro"], byPolicy["greedy"]
	if tot.MeanDelayMs >= greedy.MeanDelayMs {
		t.Fatalf("adaptive relay mean delay %.1fms not below greedy %.1fms",
			tot.MeanDelayMs, greedy.MeanDelayMs)
	}
	if tot.GoodPathShare <= greedy.GoodPathShare {
		t.Fatalf("adaptive relay good-path share %.2f not above greedy %.2f",
			tot.GoodPathShare, greedy.GoodPathShare)
	}
}
