package experiments

import (
	"fmt"
	"slices"
	"time"

	"totoro/internal/relay"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// RelayRow compares the distributed bandit relay (the in-network §5
// implementation) against the greedy next-hop baseline on one lossy relay
// fabric.
type RelayRow struct {
	Policy        string
	Delivered     int
	MeanDelayMs   float64
	P95DelayMs    float64
	Retransmits   int
	GoodPathShare float64 // fraction of frames that avoided the trap hop
}

// AblationAdaptiveRelay runs K gradient-sized frames from a worker to a
// master across a two-relay fabric whose shiny first hop hides a terrible
// second hop, under both planning policies. The distributed KL-UCB
// planner (per-hop acks for semi-bandit feedback, distance-vector J
// adverts) should deliver with a lower mean delay and route around the
// trap; the greedy baseline should not.
func AblationAdaptiveRelay(o Options) []RelayRow {
	k := 1500
	if o.Short {
		k = 400
	}
	var out []RelayRow
	for _, policy := range []string{"totoro", "greedy"} {
		out = append(out, relayRun(o, policy, k))
	}
	return out
}

func relayRun(o Options, policy string, K int) RelayRow {
	const slot = 10 * time.Millisecond
	topo := map[transport.Addr][]transport.Addr{
		"worker": {"relayA", "relayB"},
		"relayA": {"master"},
		"relayB": {"master"},
		"master": {},
	}
	net := simnet.New(simnet.Config{Seed: o.Seed, Latency: simnet.ConstLatency(time.Millisecond)})
	// Each fabric link delivers a frame with probability θ.
	for _, l := range []struct {
		from, to transport.Addr
		theta    float64
	}{
		{"worker", "relayA", 0.95}, {"relayA", "master", 0.15},
		{"worker", "relayB", 0.60}, {"relayB", "master", 0.90},
	} {
		net.AddLinkRule(simnet.LinkRule{
			From: map[transport.Addr]bool{l.from: true},
			To:   map[transport.Addr]bool{l.to: true},
			Drop: 1 - l.theta,
		})
	}
	// Iterate the topology in sorted order everywhere below: node factories
	// fire the relays' first adverts as they register, so registration in
	// map order would enqueue sends in a different order every run and
	// break same-seed reproducibility (totoro-vet: maporder).
	addrs := make([]transport.Addr, 0, len(topo))
	for a := range topo {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	inOf := map[transport.Addr][]transport.Addr{}
	for _, src := range addrs {
		for _, dst := range topo[src] {
			inOf[dst] = append(inOf[dst], src)
		}
	}
	nodes := map[transport.Addr]*relay.Node{}
	type arrival struct {
		at  time.Duration
		via transport.Addr
		id  int
	}
	var arrivals []arrival
	for _, addr := range addrs {
		addr, nbs := addr, topo[addr]
		net.AddNode(addr, func(e transport.Env) transport.Handler {
			n := relay.New(e, relay.Config{
				Neighbors:   nbs,
				InNeighbors: inOf[addr],
				AckTimeout:  slot,
				Policy:      policy,
			}, func(d relay.Data) {
				via := transport.Addr("")
				if len(d.Visited) > 1 {
					via = d.Visited[1]
				}
				arrivals = append(arrivals, arrival{at: e.Now(), via: via, id: d.Payload.(int)})
			})
			nodes[addr] = n
			return transport.HandlerFunc(func(from transport.Addr, msg any) { n.Receive(from, msg) })
		})
	}
	advertise := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, a := range addrs {
				nodes[a].AdvertiseNow()
			}
			net.RunUntilIdle()
		}
	}
	advertise(3)

	sendTimes := make([]time.Duration, K)
	for i := 0; i < K; i++ {
		sendTimes[i] = net.Now()
		nodes["worker"].Send("master", i)
		net.RunUntilIdle()
		if i%25 == 0 {
			advertise(1)
		}
	}
	delays := make([]float64, 0, len(arrivals))
	goodPath := 0
	for _, a := range arrivals {
		delays = append(delays, float64(a.at-sendTimes[a.id])/float64(time.Millisecond))
		if a.via == "relayB" {
			goodPath++
		}
	}
	row := RelayRow{
		Policy:    policy,
		Delivered: len(arrivals),
		Retransmits: int(nodes["worker"].Metrics().Counter("relay.retransmits").Value() +
			nodes["relayA"].Metrics().Counter("relay.retransmits").Value() +
			nodes["relayB"].Metrics().Counter("relay.retransmits").Value()),
	}
	if len(delays) > 0 {
		sum := 0.0
		for _, d := range delays {
			sum += d
		}
		row.MeanDelayMs = sum / float64(len(delays))
		row.P95DelayMs = percentile(delays, 0.95)
		row.GoodPathShare = float64(goodPath) / float64(len(delays))
	}
	return row
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// String renders a row for the CLI.
func (r RelayRow) String() string {
	return fmt.Sprintf("%-7s delivered %4d  mean %6.1fms  p95 %6.1fms  retx %5d  good-path %.2f",
		r.Policy, r.Delivered, r.MeanDelayMs, r.P95DelayMs, r.Retransmits, r.GoodPathShare)
}
