package experiments

import (
	"fmt"
	"time"

	"totoro"
	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
)

// TrafficRow is one point of Fig 7: mean per-node control traffic as the
// number of dataflow trees grows.
type TrafficRow struct {
	Trees           int
	TCPBytesPerNode float64
	UDPBytesPerNode float64
	// RatioTCP/RatioUDP are relative to the single-tree row.
	RatioTCP float64
	RatioUDP float64
}

// Per-message framing overheads used to derive TCP-vs-UDP byte totals from
// the same message trace.
const (
	tcpOverhead = 58 // Ethernet+IP+TCP headers
	udpOverhead = 28 // IP+UDP headers
)

// Fig7Traffic measures the additional per-node network traffic imposed by
// Totoro's trees: a 1000-node overlay runs its routine maintenance
// (leaf-set probing and tree keep-alives) over a fixed window while 1× to
// 10× dataflow trees are constructed and kept alive. Because a new tree
// only routes JOIN messages over overlay links that already exist, traffic
// grows far slower than the tree count (the paper reports 1.19× for TCP
// and 1.29× for UDP at 10× trees).
func Fig7Traffic(o Options) []TrafficRow {
	nodes := 1000
	subsPerTree := 100
	window := 30 // maintenance cycles
	if o.Short {
		nodes, subsPerTree, window = 300, 40, 12
	}
	var out []TrafficRow
	for _, trees := range []int{1, 2, 5, 10} {
		tcp, udp := trafficRun(o, nodes, trees, subsPerTree, window)
		out = append(out, TrafficRow{
			Trees:           trees,
			TCPBytesPerNode: tcp,
			UDPBytesPerNode: udp,
		})
	}
	base := out[0]
	for i := range out {
		out[i].RatioTCP = out[i].TCPBytesPerNode / base.TCPBytesPerNode
		out[i].RatioUDP = out[i].UDPBytesPerNode / base.UDPBytesPerNode
	}
	return out
}

func trafficRun(o Options, nodes, trees, subsPerTree, window int) (tcpPerNode, udpPerNode float64) {
	f := newForest(totoro.ClusterConfig{
		N:    nodes,
		Ring: ring.Config{B: 4},
		PubSub: pubsub.Config{
			KeepAliveInterval: time.Second,
			KeepAliveTimeout:  3 * time.Second,
		},
		Seed: o.Seed,
	})
	for t := 0; t < trees; t++ {
		topic := ids.Hash("fig7-app", fmt.Sprint(t))
		f.subscribeDistinct(topic, subsPerTree)
	}
	// Snapshot-delta measurement: freeze the fleet's cumulative telemetry
	// before the window and subtract it afterwards, so tree construction
	// traffic is excluded without resetting the live counters other
	// figures may still read.
	before := f.Net.MergedSnapshot()
	// The measurement window (in seconds): the overlay probes its leaf sets
	// every 15 seconds (slow background maintenance) while tree keep-alives
	// tick every second on their own timers.
	for c := 0; c < window; c++ {
		if c%15 == 0 {
			for _, e := range f.Engines {
				e.Ring().ProbeLeafset()
			}
		}
		f.Net.Run(f.Net.Now() + time.Second)
	}
	// Traffic totals come from the per-node telemetry registries (the same
	// counters a live node would expose over /metrics).
	win := f.Net.MergedSnapshot().Delta(before)
	bytes := win.Counters[simnet.CtrBytesOut]
	msgs := win.Counters[simnet.CtrMsgsOut]
	n := float64(nodes)
	tcpPerNode = (float64(bytes) + float64(msgs)*tcpOverhead) / n
	udpPerNode = (float64(bytes) + float64(msgs)*udpOverhead) / n
	return tcpPerNode, udpPerNode
}
