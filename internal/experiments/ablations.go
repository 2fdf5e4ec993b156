package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"totoro"
	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/ml"
	"totoro/internal/obs"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// AggregationAblationRow compares in-network aggregation against naive
// leaf-to-root uploads for one tree size.
type AggregationAblationRow struct {
	Members           int
	RootBytesInTree   int64 // with in-network aggregation
	RootBytesInDirect int64 // every worker uploads straight to the root
	TreeMs            float64
	DirectMs          float64
}

// AblationInNetworkAggregation quantifies the design choice at the heart
// of the forest abstraction: interior nodes fold updates on the way up, so
// root ingress stays O(fanout) instead of O(members) — the reason a single
// aggregator node never melts (DESIGN.md §5).
func AblationInNetworkAggregation(o Options) []AggregationAblationRow {
	sizes := []int{50, 100, 200, 400}
	if o.Short {
		sizes = []int{50, 150}
	}
	var out []AggregationAblationRow
	for _, n := range sizes {
		out = append(out, aggregationAblationRun(o, n))
	}
	return out
}

func aggregationAblationRun(o Options, n int) AggregationAblationRow {
	const updateBytes = 50 << 10
	topic := ids.Hash("ablation-agg", fmt.Sprint(n))
	f := newForest(totoro.ClusterConfig{
		N:         n + n/2,
		Ring:      ring.Config{B: 4},
		Seed:      o.Seed + int64(n),
		Bandwidth: 2 << 20,
	})
	f.subscribeDistinct(topic, n)
	rootAddr := f.root(topic).Self().Addr

	// (a) In-network aggregation up the tree.
	f.Net.ResetTraffic()
	start := f.Net.Now()
	f.submitAll(topic, updateBytes)
	treeMs := float64(f.lastEvent(obs.KindPubSubAgg, "root", topic, start)-start) / float64(time.Millisecond)
	rootBytesTree := f.Net.MetricsOf(rootAddr).Counter(simnet.CtrBytesIn).Value()

	// (b) Naive: every subscriber sends its raw update straight to the
	// root over the network.
	f.Net.ResetTraffic()
	start = f.Net.Now()
	var lastArrive time.Duration
	collector := transport.HandlerFunc(func(from transport.Addr, msg any) {
		lastArrive = f.Net.Now()
	})
	sinkAddr := transport.Addr("direct-sink")
	f.Net.AddNode(sinkAddr, func(e transport.Env) transport.Handler { return collector })
	f.Net.SetBandwidth(sinkAddr, 2<<20)
	for i, e := range f.Engines {
		info, ok := e.PubSub().TreeInfo(topic)
		if !ok || !info.Subscribed {
			continue
		}
		f.Env(i).Send(sinkAddr, modelObj{Bytes: updateBytes})
	}
	f.Net.RunUntilIdle()
	directMs := float64(lastArrive-start) / float64(time.Millisecond)
	rootBytesDirect := f.Net.MetricsOf(sinkAddr).Counter(simnet.CtrBytesIn).Value()

	return AggregationAblationRow{
		Members:           n,
		RootBytesInTree:   rootBytesTree,
		RootBytesInDirect: rootBytesDirect,
		TreeMs:            treeMs,
		DirectMs:          directMs,
	}
}

// MultiRingAblationRow compares cross-zone traffic with and without the
// zone-prefixed ID structure.
type MultiRingAblationRow struct {
	Scheme         string
	CrossZoneBytes int64
	IntraZoneBytes int64
	CrossZoneShare float64
}

// AblationMultiRing measures the fraction of tree-construction traffic
// that crosses zone boundaries when AppIDs and NodeIDs carry zone prefixes
// (the multi-ring design) versus a single flat ring: with the zone prefix
// equal to the first routing digit, prefix routing keeps zonal traffic
// inside the zone, which is the administrative-isolation property of §4.2.
func AblationMultiRing(o Options) []MultiRingAblationRow {
	const (
		zones    = 8
		zoneBits = 3 // == ring base B so the zone is the first digit
		perZone  = 60
		apps     = 8
		subsPer  = 30
	)
	var out []MultiRingAblationRow
	for _, zoned := range []bool{true, false} {
		name := "flat-ring"
		if zoned {
			name = "multi-ring"
		}
		var cross, intra int64
		zoneOf := func(i int) uint64 { return uint64(i / perZone) }
		zoneOfAddr := map[transport.Addr]uint64{}
		cfg := totoro.ClusterConfig{
			N:    zones * perZone,
			Ring: ring.Config{B: zoneBits},
			Seed: o.Seed,
			Observer: func(from, to transport.Addr, size int) {
				if zoneOfAddr[from] == zoneOfAddr[to] {
					intra += int64(size)
				} else {
					cross += int64(size)
				}
			},
		}
		if zoned {
			cfg.ZoneBits, cfg.ZoneOf = zoneBits, zoneOf
		}
		f := newForest(cfg)
		for i, e := range f.Engines {
			zoneOfAddr[e.Self().Addr] = zoneOf(i)
		}
		for a := 0; a < apps; a++ {
			zone := uint64(a % zones)
			var topic ids.ID
			if zoned {
				topic = ids.MakeZoned(zone, zoneBits, ids.Hash("ablation-mr", fmt.Sprint(a)))
			} else {
				topic = ids.Hash("ablation-mr", fmt.Sprint(a))
			}
			// Subscribers all live in the app's home zone.
			members := 0
			for i, e := range f.Engines {
				if zoneOf(i) == zone {
					e.SubscribeTopic(topic)
					members++
					if members >= subsPer {
						break
					}
				}
			}
			f.Net.RunUntilIdle()
		}
		total := cross + intra
		share := 0.0
		if total > 0 {
			share = float64(cross) / float64(total)
		}
		out = append(out, MultiRingAblationRow{
			Scheme:         name,
			CrossZoneBytes: cross,
			IntraZoneBytes: intra,
			CrossZoneShare: share,
		})
	}
	return out
}

// FedProxRow compares FedAvg and FedProx accuracy under non-IID skew.
type FedProxRow struct {
	Alpha      float64
	FedAvgAcc  float64
	FedProxAcc float64
}

// AblationFedProx runs the same federated workload under FedAvg and
// FedProx (μ = 0.5) across Dirichlet skew levels — the owner-pluggable
// aggregation policy of §4.3.
func AblationFedProx(o Options) []FedProxRow {
	alphas := []float64{0.05, 0.5, 5.0}
	rounds := 15
	if o.Short {
		alphas = []float64{0.1}
		rounds = 8
	}
	var out []FedProxRow
	for _, alpha := range alphas {
		rng := rand.New(rand.NewSource(o.Seed))
		full := ml.SyntheticClusters(10, 24, 4000, 0.45, rng)
		train, test := full.Split(0.2, rng)
		clients := ml.DirichletPartition(train, 16, alpha, rng)
		run := func(mu float64) float64 {
			proto := ml.NewMLP([]int{24, 32, 10}, rand.New(rand.NewSource(o.Seed+7)))
			s := fl.NewSession(proto, clients, test,
				fl.ClientConfig{LocalEpochs: 3, LR: 0.1, BatchSize: 20, ProxMu: mu}, nil)
			r := rand.New(rand.NewSource(o.Seed + 11))
			acc := 0.0
			for i := 0; i < rounds; i++ {
				acc = s.Round(8, r).Accuracy
			}
			return acc
		}
		out = append(out, FedProxRow{Alpha: alpha, FedAvgAcc: run(0), FedProxAcc: run(0.5)})
	}
	return out
}
