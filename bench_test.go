package totoro_test

// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§7). Each benchmark wraps one experiment from
// internal/experiments and reports the figure's headline quantities as
// custom metrics. Run them all with:
//
//	go test -bench=. -benchmem
//
// Full-size experiments take minutes; pass -short for the reduced scale.
// The per-experiment index lives in DESIGN.md §3; paper-vs-measured
// numbers are recorded in EXPERIMENTS.md.

import (
	"sync"
	"testing"

	"totoro"
	"totoro/internal/experiments"
	"totoro/internal/ring"
)

// table3Once caches the (expensive) Table 3 run per scale so that the
// Table3/Fig8/Fig9 benchmarks share one execution.
var (
	table3Mu    sync.Mutex
	table3Cache = map[bool]experiments.Table3Result{}
)

func table3Shared(o experiments.Options) experiments.Table3Result {
	table3Mu.Lock()
	defer table3Mu.Unlock()
	if res, ok := table3Cache[o.Short]; ok {
		return res
	}
	res := experiments.Table3(o)
	table3Cache[o.Short] = res
	return res
}

func benchOpts(b *testing.B) experiments.Options {
	return experiments.Options{Seed: 20240422, Short: testing.Short()}
}

func BenchmarkFig5aZones(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5aZones(o)
		b.ReportMetric(float64(len(rows)), "zones")
	}
}

func BenchmarkFig5bMasterDistribution(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5bMasterDistribution(o)
		b.ReportMetric(res.FracAtMost3, "frac<=3masters")
		b.ReportMetric(float64(res.MaxMasters), "max-masters")
	}
}

func BenchmarkFig5cMastersPerZone(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5cMastersPerZone(o)
		b.ReportMetric(float64(len(rows)), "zones")
	}
}

func BenchmarkFig5dTreeBalance(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5dTreeBalance(o)
		maxLevel := 0
		for _, r := range rows {
			if r.Level > maxLevel {
				maxLevel = r.Level
			}
		}
		b.ReportMetric(float64(maxLevel), "max-depth")
	}
}

func BenchmarkFig6aDissemination(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6Scale(o, 4)
		last := rows[len(rows)-1]
		b.ReportMetric(last.DisseminationMs, "dissem-ms@max")
		b.ReportMetric(float64(last.Members), "members@max")
	}
}

func BenchmarkFig6bAggregation(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6Scale(o, 4)
		last := rows[len(rows)-1]
		b.ReportMetric(last.AggregationMs, "agg-ms@max")
	}
}

func BenchmarkFig6cFanout(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6cFanout(o)
		b.ReportMetric(rows[0].DisseminationMs, "fanout8-ms")
		b.ReportMetric(rows[len(rows)-1].DisseminationMs, "fanout32-ms")
	}
}

func BenchmarkFig7Traffic(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7Traffic(o)
		last := rows[len(rows)-1]
		b.ReportMetric(last.RatioTCP, "tcp-ratio@10x")
		b.ReportMetric(last.RatioUDP, "udp-ratio@10x")
	}
}

func BenchmarkTable3TimeToAccuracy(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		res := table3Shared(o)
		var maxSpeed, minSpeed float64
		minSpeed = 1e18
		for _, r := range res.Rows {
			if r.SpeedupOpenFL > maxSpeed {
				maxSpeed = r.SpeedupOpenFL
			}
			if r.SpeedupOpenFL < minSpeed {
				minSpeed = r.SpeedupOpenFL
			}
		}
		b.ReportMetric(minSpeed, "min-speedup")
		b.ReportMetric(maxSpeed, "max-speedup")
	}
}

func BenchmarkFig8SpeechCurves(b *testing.B) {
	// The speech curves come out of the same runs as Table 3; this bench
	// regenerates them standalone at the largest app count.
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		res := table3Shared(o)
		n := 0
		for key, c := range res.Curves {
			if containsSpeech(key) {
				n += len(c)
			}
		}
		b.ReportMetric(float64(n), "curve-points")
	}
}

func BenchmarkFig9FemnistCurves(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		res := table3Shared(o)
		n := 0
		for key, c := range res.Curves {
			if containsFemnist(key) {
				n += len(c)
			}
		}
		b.ReportMetric(float64(n), "curve-points")
	}
}

func containsSpeech(s string) bool  { return contains(s, "speech") }
func containsFemnist(s string) bool { return contains(s, "femnist") }
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkFig10Regret(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10Regret(o)
		last := func(n string) float64 { c := res.Curves[n]; return c[len(c)-1] }
		b.ReportMetric(last("totoro"), "totoro-regret")
		b.ReportMetric(last("next-hop"), "nexthop-regret")
		b.ReportMetric(last("end-to-end"), "endtoend-regret")
	}
}

func BenchmarkFig11PathFrequencies(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		grids := experiments.Fig11PathFrequencies(o)
		for _, g := range grids {
			if g.Policy == "totoro" {
				b.ReportMetric(g.Grid[len(g.Grid)-1][0], "totoro-best-rate")
			}
		}
	}
}

func BenchmarkFig12Recovery(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12Recovery(o)
		b.ReportMetric(rows[0].RecoveryMs, "recovery-ms@min-trees")
		b.ReportMetric(rows[len(rows)-1].RecoveryMs, "recovery-ms@max-trees")
	}
}

func BenchmarkFig13aCPU(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13Overhead(o)
		for _, r := range rows {
			if r.System == "totoro" && r.Phase == "dht" {
				b.ReportMetric(r.CPUSec*1000, "dht-cpu-ms")
			}
		}
	}
}

func BenchmarkFig13bMemory(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13Overhead(o)
		for _, r := range rows {
			if r.System == "totoro" && r.Phase == "dht" {
				b.ReportMetric(r.AllocMB, "dht-alloc-mb")
			}
		}
	}
}

func BenchmarkAblationInNetworkAggregation(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationInNetworkAggregation(o)
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.RootBytesInDirect)/float64(last.RootBytesInTree), "root-ingress-saving")
	}
}

func BenchmarkAblationMultiRing(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationMultiRing(o)
		for _, r := range rows {
			if r.Scheme == "multi-ring" {
				b.ReportMetric(r.CrossZoneShare, "crosszone-share")
			}
		}
	}
}

func BenchmarkAblationAdaptiveRelay(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationAdaptiveRelay(o)
		for _, r := range rows {
			if r.Policy == "totoro" {
				b.ReportMetric(r.MeanDelayMs, "adaptive-mean-ms")
			} else {
				b.ReportMetric(r.MeanDelayMs, "greedy-mean-ms")
			}
		}
	}
}

func BenchmarkAblationFedProx(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationFedProx(o)
		b.ReportMetric(rows[0].FedProxAcc-rows[0].FedAvgAcc, "prox-gain@minalpha")
	}
}

// BenchmarkNewCluster50k is what constructing the benchmark's fleet-50k
// costs: 50k engines on the simulator (exact frame sizes, fanout 16) and
// the static wiring of their overlay. At that size a run is mostly this.
func BenchmarkNewCluster50k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := totoro.NewCluster(totoro.ClusterConfig{
			N: 50000, Seed: 1, Ring: ring.Config{B: 4}, Bandwidth: 2 << 20, ExactSizes: true,
		})
		if len(c.Engines) != 50000 {
			b.Fatal("cluster is short of engines")
		}
	}
}
