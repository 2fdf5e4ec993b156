package bandit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKLBasicProperties(t *testing.T) {
	if d := KL(0.3, 0.3); d > 1e-9 {
		t.Fatalf("KL(p,p)=%v", d)
	}
	if KL(0.3, 0.5) <= 0 || KL(0.3, 0.1) <= 0 {
		t.Fatal("KL must be positive off-diagonal")
	}
	// Monotone in |q − p| on each side.
	if KL(0.3, 0.6) <= KL(0.3, 0.4) {
		t.Fatal("KL not increasing away from p")
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		p := float64(a) / 65535
		q := float64(b) / 65535
		return KL(p, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKLUCBUpperBounds(t *testing.T) {
	// No data: fully optimistic.
	if u := KLUCBUpper(0, 0, 1); u != 1 {
		t.Fatalf("no-data UCB=%v", u)
	}
	// The bound is at least the empirical mean.
	u := KLUCBUpper(0.4, 10, math.Log(100))
	if u < 0.4 {
		t.Fatalf("UCB %v below mean", u)
	}
	// More samples shrink the bound toward the mean.
	u2 := KLUCBUpper(0.4, 10000, math.Log(100))
	if u2 >= u {
		t.Fatalf("UCB did not shrink with samples: %v -> %v", u, u2)
	}
	if math.Abs(u2-0.4) > 0.02 {
		t.Fatalf("tight UCB %v far from mean", u2)
	}
	// Larger budget widens the bound.
	if KLUCBUpper(0.4, 10, math.Log(10)) > KLUCBUpper(0.4, 10, math.Log(10000)) {
		t.Fatal("UCB not monotone in budget")
	}
}

func TestGeometricTransmitMean(t *testing.T) {
	g := NewGraph(2)
	g.AddLink(0, 1, 0.25)
	st := newStatTable()
	rng := rand.New(rand.NewSource(1))
	total := 0
	const n = 20000
	for i := 0; i < n; i++ {
		total += st.transmit(g, 0, 1, rng)
	}
	mean := float64(total) / n
	if mean < 3.8 || mean > 4.2 {
		t.Fatalf("geometric mean %v want ~4", mean)
	}
	s := st.get(0, 1)
	if s.successes != n {
		t.Fatalf("successes=%d want %d", s.successes, n)
	}
	if got := s.thetaHat(); math.Abs(got-0.25) > 0.01 {
		t.Fatalf("thetaHat=%v", got)
	}
}

// diamond builds the classic trap for greedy next-hop routing: the first
// hop with the higher success rate leads into a terrible second hop.
func diamond() (*Graph, int, int) {
	g := NewGraph(4)
	// 0 -> 1 (0.9) -> 3 (0.2): expected 1.11 + 5 = 6.11
	// 0 -> 2 (0.6) -> 3 (0.9): expected 1.67 + 1.11 = 2.78
	g.AddLink(0, 1, 0.9)
	g.AddLink(1, 3, 0.2)
	g.AddLink(0, 2, 0.6)
	g.AddLink(2, 3, 0.9)
	return g, 0, 3
}

func TestBestPathOnDiamond(t *testing.T) {
	g, src, dst := diamond()
	path, d := g.BestPath(src, dst)
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("best path %v", path)
	}
	if math.Abs(d-(1/0.6+1/0.9)) > 1e-9 {
		t.Fatalf("best delay %v", d)
	}
}

func TestPathsEnumerationLoopFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, src, dst := LayeredGraph(2, 3, 0.2, 0.9, rng)
	paths := g.Paths(src, dst, 0)
	if len(paths) != 9 { // 3 × 3 layer choices
		t.Fatalf("paths=%d want 9", len(paths))
	}
	for _, p := range paths {
		seen := map[int]bool{}
		for _, v := range p {
			if seen[v] {
				t.Fatalf("loop in path %v", p)
			}
			seen[v] = true
		}
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatalf("bad endpoints %v", p)
		}
	}
}

func TestCostToDestMatchesBestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, src, dst := LayeredGraph(3, 3, 0.2, 0.9, rng)
	_, want := g.BestPath(src, dst)
	costs := g.CostToDest(dst, func(u, v int) float64 { return 1 / g.Theta(u, v) })
	if math.Abs(costs[src]-want) > 1e-9 {
		t.Fatalf("CostToDest=%v BestPath=%v", costs[src], want)
	}
	if costs[dst] != 0 {
		t.Fatal("dst cost must be 0")
	}
}

func TestHopByHopEscapesGreedyTrap(t *testing.T) {
	g, src, dst := diamond()
	rng := rand.New(rand.NewSource(4))
	p := NewHopByHop(g, src, dst)
	viaGood := 0
	const K = 1500
	for k := 0; k < K; k++ {
		_, path := p.SendPacket(rng)
		if len(path) == 3 && path[1] == 2 {
			viaGood++
		}
	}
	if float64(viaGood)/K < 0.8 {
		t.Fatalf("hop-by-hop used the optimal path only %d/%d times", viaGood, K)
	}
}

func TestNextHopFallsIntoGreedyTrap(t *testing.T) {
	g, src, dst := diamond()
	rng := rand.New(rand.NewSource(5))
	p := NewNextHop(g, src, dst)
	viaBad := 0
	const K = 1500
	for k := 0; k < K; k++ {
		_, path := p.SendPacket(rng)
		if len(path) == 3 && path[1] == 1 {
			viaBad++
		}
	}
	// The empirical next-hop baseline keeps choosing the shiny first hop.
	if float64(viaBad)/K < 0.5 {
		t.Fatalf("next-hop unexpectedly avoided the trap (%d/%d)", viaBad, K)
	}
}

func TestOptimalPolicyDelayMatchesExpectation(t *testing.T) {
	g, src, dst := diamond()
	rng := rand.New(rand.NewSource(6))
	p := NewOptimal(g, src, dst)
	total := 0
	const K = 20000
	for k := 0; k < K; k++ {
		d, path := p.SendPacket(rng)
		total += d
		if path[1] != 2 {
			t.Fatal("optimal policy deviated")
		}
	}
	mean := float64(total) / K
	want := 1/0.6 + 1/0.9
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("optimal mean delay %v want %v", mean, want)
	}
}

func TestRegretOrderingMatchesPaper(t *testing.T) {
	// Fig 10: Totoro < next-hop and Totoro < end-to-end in final regret.
	e := Experiment{Layers: 2, Width: 3, K: 1200, Runs: 4, Seed: 99}
	curves := e.Regret([]string{"totoro", "next-hop", "end-to-end", "optimal"})
	last := func(name string) float64 { c := curves[name]; return c[len(c)-1] }
	if !(last("totoro") < last("next-hop")) {
		t.Fatalf("totoro regret %v !< next-hop %v", last("totoro"), last("next-hop"))
	}
	if !(last("totoro") < last("end-to-end")) {
		t.Fatalf("totoro regret %v !< end-to-end %v", last("totoro"), last("end-to-end"))
	}
	// The oracle's regret stays near zero (only transmission noise).
	if math.Abs(last("optimal")) > last("totoro") {
		t.Fatalf("optimal regret %v suspicious vs totoro %v", last("optimal"), last("totoro"))
	}
}

func TestRegretSublinearForTotoro(t *testing.T) {
	e := Experiment{Layers: 2, Width: 3, K: 2000, Runs: 4, Seed: 77}
	curves := e.Regret([]string{"totoro"})
	c := curves["totoro"]
	// Per-packet regret in the last quarter must be well below the first
	// quarter (learning happened).
	q := len(c) / 4
	early := c[q] / float64(q)
	late := (c[len(c)-1] - c[len(c)-1-q]) / float64(q)
	if late > early*0.6 {
		t.Fatalf("no evidence of learning: early rate %.3f late rate %.3f", early, late)
	}
}

func TestFrequenciesConvergeToBestPath(t *testing.T) {
	e := Experiment{Layers: 2, Width: 3, K: 1200, Runs: 3, Seed: 55}
	freq, paths := e.Frequencies("totoro", 6)
	if paths != 9 {
		t.Fatalf("paths=%d", paths)
	}
	for i, row := range freq {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("bucket %d not normalized: %v", i, sum)
		}
	}
	if freq[len(freq)-1][0] < freq[0][0] {
		t.Fatal("best-path frequency did not grow over time")
	}
	if freq[len(freq)-1][0] < 0.6 {
		t.Fatalf("late best-path frequency %.2f too low", freq[len(freq)-1][0])
	}
}

func TestEndToEndSlowestToConverge(t *testing.T) {
	e := Experiment{Layers: 2, Width: 3, K: 1200, Runs: 3, Seed: 55}
	fT, _ := e.Frequencies("totoro", 6)
	fE, _ := e.Frequencies("end-to-end", 6)
	// In the first bucket, Totoro already favors the best path more than
	// end-to-end (which must sample every arm).
	if fT[0][0] <= fE[0][0] {
		t.Fatalf("totoro early best-rate %.2f <= end-to-end %.2f", fT[0][0], fE[0][0])
	}
}

func TestRankPathsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, src, dst := LayeredGraph(2, 3, 0.2, 0.9, rng)
	_, delays := g.RankPaths(src, dst)
	for i := 1; i < len(delays); i++ {
		if delays[i] < delays[i-1] {
			t.Fatal("ranked paths out of order")
		}
	}
}

func TestLayeredGraphShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, src, dst := LayeredGraph(3, 4, 0.1, 0.9, rng)
	if g.N != 2+3*4 {
		t.Fatalf("N=%d", g.N)
	}
	if len(g.Out(src)) != 4 {
		t.Fatalf("src degree %d", len(g.Out(src)))
	}
	if len(g.Out(dst)) != 0 {
		t.Fatal("dst must be a sink")
	}
	for l, th := range g.theta {
		if th < 0.1 || th > 0.9 {
			t.Fatalf("theta %v of link %v out of range", th, l)
		}
	}
}
