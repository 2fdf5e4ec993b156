package relay

import (
	"fmt"
	"testing"
	"time"

	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// link is one lossy directed link: it delivers a frame with probability
// theta. Links not listed are lossless (acks and adverts flow on reverse
// links).
type link struct {
	from, to transport.Addr
	theta    float64
}

// lossy installs l on the network as a drop rule and returns its remover.
func lossy(net *simnet.Network, l link) (remove func()) {
	return net.AddLinkRule(simnet.LinkRule{
		From: map[transport.Addr]bool{l.from: true},
		To:   map[transport.Addr]bool{l.to: true},
		Drop: 1 - l.theta,
	})
}

// lossyNet builds a relay deployment over a simulated network with the
// given lossy links.
func lossyNet(seed int64, topo map[transport.Addr][]transport.Addr,
	links []link, policy string) (*simnet.Network, map[transport.Addr]*Node, map[transport.Addr][]Data) {
	net := simnet.New(simnet.Config{Seed: seed, Latency: simnet.ConstLatency(time.Millisecond)})
	for _, l := range links {
		lossy(net, l)
	}
	nodes := make(map[transport.Addr]*Node)
	delivered := make(map[transport.Addr][]Data)
	inOf := make(map[transport.Addr][]transport.Addr)
	for src, nbs := range topo {
		for _, dst := range nbs {
			inOf[dst] = append(inOf[dst], src)
		}
	}
	for addr, nbs := range topo {
		addr, nbs := addr, nbs
		net.AddNode(addr, func(e transport.Env) transport.Handler {
			n := New(e, Config{
				Neighbors:   nbs,
				InNeighbors: inOf[addr],
				AckTimeout:  20 * time.Millisecond,
				Policy:      policy,
			}, func(d Data) { delivered[addr] = append(delivered[addr], d) })
			nodes[addr] = n
			return transport.HandlerFunc(func(from transport.Addr, msg any) {
				n.Receive(from, msg)
			})
		})
	}
	return net, nodes, delivered
}

// diamond returns the greedy-trap topology: the shiny first hop s→a leads
// into a terrible link a→d; the mediocre first hop s→b leads to a great
// link b→d.
func diamond() (map[transport.Addr][]transport.Addr, []link) {
	topo := map[transport.Addr][]transport.Addr{
		"s": {"a", "b"},
		"a": {"d"},
		"b": {"d"},
		"d": {},
	}
	return topo, []link{{"s", "a", 0.95}, {"a", "d", 0.15}, {"s", "b", 0.60}, {"b", "d", 0.90}}
}

func advertiseAll(net *simnet.Network, nodes map[transport.Addr]*Node, rounds int) {
	for i := 0; i < rounds; i++ {
		for _, n := range nodes {
			n.AdvertiseNow()
		}
		net.RunUntilIdle()
	}
}

func TestAdvertsPropagateCosts(t *testing.T) {
	topo := map[transport.Addr][]transport.Addr{
		"a": {"b"}, "b": {"c"}, "c": {"d"}, "d": {},
	}
	net, nodes, _ := lossyNet(1, topo, nil, "totoro")
	advertiseAll(net, nodes, 4)
	j := jOr(nodes["a"].jSelf, "d")
	// Three perfect hops with optimistic costs ≥ 1 each.
	if j < 3 || j > 4 {
		t.Fatalf("J(a->d)=%v want ~3", j)
	}
	if jOr(nodes["d"].jSelf, "d") != 0 {
		t.Fatalf("self cost %v", jOr(nodes["d"].jSelf, "d"))
	}
}

func TestAllFramesDeliveredOnceUnderLoss(t *testing.T) {
	topo, links := diamond()
	net, nodes, delivered := lossyNet(2, topo, links, "totoro")
	advertiseAll(net, nodes, 3)
	const K = 300
	for k := 0; k < K; k++ {
		nodes["s"].Send("d", k)
		// Interleave adverts so the planner keeps learning.
		if k%25 == 0 {
			advertiseAll(net, nodes, 1)
		}
	}
	net.RunUntilIdle()
	got := delivered["d"]
	if len(got) != K {
		t.Fatalf("delivered %d of %d frames", len(got), K)
	}
	seen := map[int]bool{}
	for _, d := range got {
		v := d.Payload.(int)
		if seen[v] {
			t.Fatalf("frame %d delivered twice", v)
		}
		seen[v] = true
	}
}

func pathVia(d Data, hop transport.Addr) bool {
	for _, v := range d.Visited {
		if v == hop {
			return true
		}
	}
	return false
}

func TestTotoroPolicyAvoidsGreedyTrap(t *testing.T) {
	topo, links := diamond()
	net, nodes, delivered := lossyNet(3, topo, links, "totoro")
	advertiseAll(net, nodes, 3)
	const K = 400
	for k := 0; k < K; k++ {
		nodes["s"].Send("d", k)
		if k%20 == 0 {
			advertiseAll(net, nodes, 1)
		}
	}
	net.RunUntilIdle()
	viaB := 0
	for _, d := range delivered["d"] {
		if pathVia(d, "b") {
			viaB++
		}
	}
	if frac := float64(viaB) / float64(len(delivered["d"])); frac < 0.7 {
		t.Fatalf("totoro policy used the good path only %.2f of the time", frac)
	}
}

func TestGreedyPolicyFallsIntoTrap(t *testing.T) {
	topo, links := diamond()
	net, nodes, delivered := lossyNet(4, topo, links, "greedy")
	advertiseAll(net, nodes, 3)
	const K = 400
	for k := 0; k < K; k++ {
		nodes["s"].Send("d", k)
		if k%20 == 0 {
			advertiseAll(net, nodes, 1)
		}
	}
	net.RunUntilIdle()
	viaA := 0
	for _, d := range delivered["d"] {
		if pathVia(d, "a") {
			viaA++
		}
	}
	if frac := float64(viaA) / float64(len(delivered["d"])); frac < 0.5 {
		t.Fatalf("greedy unexpectedly avoided the trap (%.2f via a)", frac)
	}
}

func TestLinkEstimatesConverge(t *testing.T) {
	topo, links := diamond()
	net, nodes, _ := lossyNet(5, topo, links, "totoro")
	advertiseAll(net, nodes, 3)
	for k := 0; k < 500; k++ {
		nodes["s"].Send("d", k)
		if k%25 == 0 {
			advertiseAll(net, nodes, 1)
		}
	}
	net.RunUntilIdle()
	th, attempts := nodes["b"].links["d"].thetaHat(), nodes["b"].links["d"].attempts
	if attempts < 100 {
		t.Fatalf("b->d barely used: %d attempts", attempts)
	}
	if th < 0.8 || th > 1.0 {
		t.Fatalf("b->d estimate %.3f want ~0.9", th)
	}
}

func TestUnreachableDestinationExpires(t *testing.T) {
	topo := map[transport.Addr][]transport.Addr{
		"a": {"b"}, "b": {}, "x": {},
	}
	net, nodes, delivered := lossyNet(6, topo, nil, "totoro")
	advertiseAll(net, nodes, 3)
	nodes["a"].Send("x", "lost")
	net.RunUntilIdle()
	if len(delivered["x"]) != 0 {
		t.Fatal("unreachable destination received a frame")
	}
	if nodes["a"].Metrics().Counter("relay.expired").Value() == 0 {
		t.Fatal("frame did not expire")
	}
}

func TestAdaptsWhenLinkDegrades(t *testing.T) {
	// Start with a perfect a-route; degrade it mid-run; traffic must shift
	// to the b-route (this is the "replan the data transfer paths" claim).
	topo := map[transport.Addr][]transport.Addr{
		"s": {"a", "b"}, "a": {"d"}, "b": {"d"}, "d": {},
	}
	net, nodes, delivered := lossyNet(7, topo, []link{{"s", "a", 0.95}, {"s", "b", 0.70}, {"b", "d", 0.70}}, "totoro")
	healthy := lossy(net, link{"a", "d", 0.95})
	advertiseAll(net, nodes, 3)
	send := func(base, k int) {
		for i := 0; i < k; i++ {
			nodes["s"].Send("d", base+i)
			if i%20 == 0 {
				advertiseAll(net, nodes, 1)
			}
		}
		net.RunUntilIdle()
	}
	send(0, 200)
	// Degrade the a-route drastically.
	healthy()
	lossy(net, link{"a", "d", 0.05})
	send(1000, 600)
	lateViaB := 0
	lateTotal := 0
	for _, d := range delivered["d"] {
		v := d.Payload.(int)
		if v >= 1400 { // the last third after degradation
			lateTotal++
			if pathVia(d, "b") {
				lateViaB++
			}
		}
	}
	if lateTotal == 0 {
		t.Fatal("no late frames delivered")
	}
	if frac := float64(lateViaB) / float64(lateTotal); frac < 0.6 {
		t.Fatalf("planner did not shift away from the degraded link (%.2f via b)", frac)
	}
}

func TestStatsAccounting(t *testing.T) {
	topo, links := diamond()
	net, nodes, _ := lossyNet(8, topo, links, "totoro")
	advertiseAll(net, nodes, 3)
	for k := 0; k < 50; k++ {
		nodes["s"].Send("d", k)
	}
	net.RunUntilIdle()
	m := nodes["s"].Metrics()
	if fwd := m.Counter("relay.forwarded").Value(); fwd < 50 {
		t.Fatalf("forwarded=%d", fwd)
	}
	if m.Counter("relay.retransmits").Value() == 0 {
		t.Fatal("lossy links produced no retransmissions")
	}
	fmt.Println() // keep fmt imported for debugging convenience
}
