// totoro-bench regenerates the tables and figures of the paper's
// evaluation (§7). Every experiment is deterministic for a given seed.
//
// Usage:
//
//	totoro-bench -exp all            # everything (minutes)
//	totoro-bench -exp table3 -short  # one experiment, reduced scale
//	totoro-bench -list               # list experiment ids
//
// Experiment ids map to the paper via DESIGN.md §3; measured-vs-paper
// numbers are recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"totoro/internal/experiments"
)

var experimentsOrder = []string{
	"fig5a", "fig5b", "fig5c", "fig5d",
	"fig6ab", "fig6c", "fig7",
	"table3", "fig10", "fig11", "fig12", "fig13",
	"ablations", "wire",
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	short := flag.Bool("short", false, "reduced-scale run")
	seed := flag.Int64("seed", 20240422, "experiment seed")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experimentsOrder, "\n"))
		return
	}
	o := experiments.Options{Seed: *seed, Short: *short}
	ids := experimentsOrder
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		start := time.Now()
		if !run(id, o) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func run(id string, o experiments.Options) bool {
	switch id {
	case "fig5a":
		fmt.Println("=== Fig 5a: edge zones from distributed binning over the EUA population ===")
		for _, r := range experiments.Fig5aZones(o) {
			fmt.Printf("zone %2d  members %6d  diameter %8.1fms\n",
				r.Zone, r.Members, float64(r.Diameter)/1e6)
		}
	case "fig5b":
		fmt.Println("=== Fig 5b: masters per node, 500 trees over 1000 nodes ===")
		res := experiments.Fig5bMasterDistribution(o)
		for _, r := range res.Rows {
			fmt.Printf("masters=%d  nodes=%4d\n", r.MastersPerNode, r.Nodes)
		}
		fmt.Printf("fraction of nodes rooting <=3 trees: %.4f (paper: 0.995)\n", res.FracAtMost3)
		fmt.Printf("max masters on any node: %d\n", res.MaxMasters)
	case "fig5c":
		fmt.Println("=== Fig 5c: masters scale with per-zone workload ===")
		fmt.Printf("%-5s %6s %5s %8s %6s\n", "zone", "nodes", "apps", "masters@", "max/node")
		for _, r := range experiments.Fig5cMastersPerZone(o) {
			fmt.Printf("%-5d %6d %5d %8d %6d\n",
				r.Zone, r.Nodes, r.Apps, r.DistinctMasterNodes, r.MaxMastersPerNode)
		}
	case "fig5d":
		fmt.Println("=== Fig 5d: per-level branch balance of 17 trees (fanout 8) ===")
		rows := experiments.Fig5dTreeBalance(o)
		cur := -1
		for _, r := range rows {
			if r.Tree != cur {
				cur = r.Tree
				fmt.Printf("\ntree %2d:", r.Tree)
			}
			fmt.Printf("  L%d=%d", r.Level, r.Nodes)
		}
		fmt.Println()
	case "fig6ab":
		fmt.Println("=== Fig 6a/6b: dissemination & aggregation time vs tree size (fanout 16) ===")
		fmt.Printf("%8s %6s %16s %15s\n", "members", "depth", "disseminate(ms)", "aggregate(ms)")
		for _, r := range experiments.Fig6Scale(o, 4) {
			fmt.Printf("%8d %6d %16.1f %15.1f\n",
				r.Members, r.Depth, r.DisseminationMs, r.AggregationMs)
		}
	case "fig6c":
		fmt.Println("=== Fig 6c: dissemination time by tree fanout ===")
		for _, r := range experiments.Fig6cFanout(o) {
			fmt.Printf("fanout %2d  depth %d  dissemination %.1fms\n",
				r.Fanout, r.Depth, r.DisseminationMs)
		}
	case "fig7":
		fmt.Println("=== Fig 7: per-node traffic vs number of dataflow trees ===")
		fmt.Printf("%6s %14s %14s %9s %9s\n", "trees", "TCP B/node", "UDP B/node", "TCP ratio", "UDP ratio")
		for _, r := range experiments.Fig7Traffic(o) {
			fmt.Printf("%6d %14.0f %14.0f %9.2f %9.2f\n",
				r.Trees, r.TCPBytesPerNode, r.UDPBytesPerNode, r.RatioTCP, r.RatioUDP)
		}
	case "table3":
		fmt.Println("=== Table 3: time-to-accuracy speedups vs OpenFL / FedScale ===")
		res := experiments.Table3(o)
		fmt.Printf("%-8s %5s %7s %11s %11s %12s %9s %9s\n",
			"task", "apps", "fanout", "totoro(s)", "openfl(s)", "fedscale(s)", "xOpenFL", "xFedScale")
		for _, r := range res.Rows {
			fmt.Printf("%-8s %5d %7d %11.1f %11.1f %12.1f %8.1fx %8.1fx\n",
				r.Task, r.Apps, r.Fanout, r.TotoroSec, r.OpenFLSec, r.FedScaleSec,
				r.SpeedupOpenFL, r.SpeedupFedScale)
		}
		fmt.Println("\nFig 8/9 accuracy-over-time curve endpoints:")
		for _, key := range slices.Sorted(maps.Keys(res.Curves)) {
			curve := res.Curves[key]
			if len(curve) == 0 {
				continue
			}
			last := curve[len(curve)-1]
			fmt.Printf("  %-22s points=%3d final mean-acc=%.3f at %.1fs\n",
				key, len(curve), last.MeanAcc, last.Sec)
		}
	case "fig10":
		fmt.Println("=== Fig 10: regret comparison of path-planning policies ===")
		res := experiments.Fig10Regret(o)
		for _, name := range []string{"optimal", "totoro", "next-hop", "end-to-end"} {
			c := res.Curves[name]
			fmt.Printf("%-12s regret@K/4=%8.1f  @K/2=%8.1f  @K=%8.1f\n",
				name, c[len(c)/4], c[len(c)/2], c[len(c)-1])
		}
	case "fig11":
		fmt.Println("=== Fig 11: path-selection frequencies (rank 0 = optimal path) ===")
		for _, g := range experiments.Fig11PathFrequencies(o) {
			fmt.Printf("%-12s best-path rate per window:", g.Policy)
			for _, row := range g.Grid {
				fmt.Printf(" %.2f", row[0])
			}
			fmt.Println()
		}
	case "fig12":
		fmt.Println("=== Fig 12: recovery time with 5% simultaneous failures per tree ===")
		for _, r := range experiments.Fig12Recovery(o) {
			fmt.Printf("trees %3d  failed %3d  recovery %8.1fms  repair-joins %4d\n",
				r.Trees, r.FailedNodes, r.RecoveryMs, r.RepairJoins)
		}
	case "fig13":
		fmt.Println("=== Fig 13: CPU and memory overhead, Totoro vs OpenFL-like ===")
		for _, r := range experiments.Fig13Overhead(o) {
			fmt.Printf("%-8s %-4s cpu %7.3fs  alloc %8.2fMB\n", r.System, r.Phase, r.CPUSec, r.AllocMB)
		}
	case "ablations":
		fmt.Println("=== Ablation: in-network aggregation vs direct-to-root uploads ===")
		for _, r := range experiments.AblationInNetworkAggregation(o) {
			fmt.Printf("members %4d  root-in tree %8dB direct %9dB  time tree %7.1fms direct %7.1fms\n",
				r.Members, r.RootBytesInTree, r.RootBytesInDirect, r.TreeMs, r.DirectMs)
		}
		fmt.Println("\n=== Ablation: multi-ring administrative isolation ===")
		for _, r := range experiments.AblationMultiRing(o) {
			fmt.Printf("%-11s cross-zone %8dB intra-zone %9dB  cross share %.3f\n",
				r.Scheme, r.CrossZoneBytes, r.IntraZoneBytes, r.CrossZoneShare)
		}
		fmt.Println("\n=== Ablation: adaptive bandit relay vs greedy next-hop (distributed §5) ===")
		for _, r := range experiments.AblationAdaptiveRelay(o) {
			fmt.Println(r.String())
		}
		fmt.Println("\n=== Ablation: FedAvg vs FedProx under non-IID skew ===")
		for _, r := range experiments.AblationFedProx(o) {
			fmt.Printf("alpha %5.2f  fedavg %.3f  fedprox %.3f\n", r.Alpha, r.FedAvgAcc, r.FedProxAcc)
		}
	case "wire":
		fmt.Println("=== Wire format v2: accuracy cost of the compressed update encodings (same workload, same seeds) ===")
		for _, r := range experiments.WireCompressionAccuracy(o) {
			fmt.Printf("  %-10s final-acc=%.3f  update=%6dB of %6dB dense  saving=%5.1f%%\n",
				r.Compressor, r.FinalAcc, r.UpdateBytes, r.DenseBytes, 100*r.Saving)
		}
	default:
		return false
	}
	return true
}
