// Package bandit implements Totoro's bandit-based exploitation-exploration
// path planning model (paper §5).
//
// The edge network is a directed graph G = (V, E) whose links succeed
// independently with unknown probabilities θ_i; retransmitting until
// success makes a link's per-packet delay geometric with mean 1/θ_i. The
// planner must route K packets from a source to a destination while
// learning link qualities, trading off exploring unknown links against
// exploiting known-good ones. The paper's Algorithm 1 is a distributed
// hop-by-hop policy with semi-bandit feedback: each node v picks the
// neighbor v' minimizing C(v,v') = ω(v,v') + J(v'), where ω is a KL-UCB
// optimistic estimate of the link's expected delay and J is the optimistic
// cost-to-destination.
//
// The package also implements the two baselines evaluated in Fig 10/11 —
// end-to-end LCB routing (per-path bandit, full-path feedback) and
// empirical next-hop routing — plus the omniscient optimal policy, and the
// regret/selection-frequency harness that regenerates both figures.
package bandit

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Graph is a directed graph with Bernoulli link success probabilities.
type Graph struct {
	N     int
	adj   [][]int
	theta map[[2]int]float64
}

// NewGraph creates an empty graph with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{N: n, adj: make([][]int, n), theta: make(map[[2]int]float64)}
}

// AddLink adds a directed link u→v with success probability th ∈ (0,1].
func (g *Graph) AddLink(u, v int, th float64) {
	if th <= 0 || th > 1 {
		panic(fmt.Sprintf("bandit: invalid theta %v", th))
	}
	if _, dup := g.theta[[2]int{u, v}]; dup {
		g.theta[[2]int{u, v}] = th
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.theta[[2]int{u, v}] = th
}

// Theta returns the true success probability of link u→v.
func (g *Graph) Theta(u, v int) float64 { return g.theta[[2]int{u, v}] }

// Out returns the out-neighbors of u.
func (g *Graph) Out(u int) []int { return g.adj[u] }

// ExpectedDelay of a path is Σ 1/θ over its links.
func (g *Graph) ExpectedDelay(path []int) float64 {
	d := 0.0
	for i := 0; i+1 < len(path); i++ {
		d += 1 / g.Theta(path[i], path[i+1])
	}
	return d
}

// Paths enumerates all loop-free paths from src to dst (up to limit; 0
// means unlimited). Deterministic order.
func (g *Graph) Paths(src, dst, limit int) [][]int {
	var out [][]int
	visited := make([]bool, g.N)
	var cur []int
	var dfs func(u int)
	dfs = func(u int) {
		if limit > 0 && len(out) >= limit {
			return
		}
		visited[u] = true
		cur = append(cur, u)
		if u == dst {
			out = append(out, append([]int(nil), cur...))
		} else {
			for _, v := range g.adj[u] {
				if !visited[v] {
					dfs(v)
				}
			}
		}
		cur = cur[:len(cur)-1]
		visited[u] = false
	}
	dfs(src)
	return out
}

// BestPath returns the minimum-expected-delay path from src to dst and its
// expected delay (Dijkstra over weights 1/θ).
func (g *Graph) BestPath(src, dst int) ([]int, float64) {
	const inf = math.MaxFloat64
	dist := make([]float64, g.N)
	prev := make([]int, g.N)
	done := make([]bool, g.N)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	for {
		u, best := -1, inf
		for i := 0; i < g.N; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, v := range g.adj[u] {
			if w := dist[u] + 1/g.Theta(u, v); w < dist[v] {
				dist[v] = w
				prev[v] = u
			}
		}
	}
	if dist[dst] == inf {
		return nil, inf
	}
	var path []int
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst]
}

// CostToDest computes, for every node, the minimum Σ weight(link) cost to
// dst under the given per-link weights (reverse Dijkstra). Unreachable
// nodes get +Inf.
func (g *Graph) CostToDest(dst int, weight func(u, v int) float64) []float64 {
	const inf = math.MaxFloat64
	// Build reverse adjacency once per call (graphs are small).
	radj := make([][]int, g.N)
	for u := 0; u < g.N; u++ {
		for _, v := range g.adj[u] {
			radj[v] = append(radj[v], u)
		}
	}
	dist := make([]float64, g.N)
	done := make([]bool, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[dst] = 0
	for {
		u, best := -1, inf
		for i := 0; i < g.N; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, p := range radj[u] {
			if w := dist[u] + weight(p, u); w < dist[p] {
				dist[p] = w
			}
		}
	}
	return dist
}

// Reachable reports which nodes can reach dst.
func (g *Graph) Reachable(dst int) []bool {
	can := g.CostToDest(dst, func(u, v int) float64 { return 1 })
	out := make([]bool, g.N)
	for i, d := range can {
		out[i] = d < math.MaxFloat64
	}
	return out
}

// LayeredGraph builds the classic path-planning testbed: `layers` interior
// layers of `width` nodes between a source (node 0) and a destination
// (last node), fully connected layer to layer, with link success
// probabilities drawn uniformly from [lo, hi].
func LayeredGraph(layers, width int, lo, hi float64, rng *rand.Rand) (g *Graph, src, dst int) {
	n := 2 + layers*width
	g = NewGraph(n)
	src, dst = 0, n-1
	node := func(layer, i int) int { return 1 + layer*width + i }
	draw := func() float64 { return lo + rng.Float64()*(hi-lo) }
	for i := 0; i < width; i++ {
		g.AddLink(src, node(0, i), draw())
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.AddLink(node(l, i), node(l+1, j), draw())
			}
		}
	}
	for i := 0; i < width; i++ {
		g.AddLink(node(layers-1, i), dst, draw())
	}
	return g, src, dst
}

// PlantedGraph builds a layered graph with a clearly optimal planted path
// and a greedy trap, the structure behind Fig 10/11: links are mediocre
// (θ ∈ [0.2, 0.55]) except one planted path of excellent links (θ = 0.9)
// whose *first* hop (θ = 0.7) looks worse than a decoy first hop
// (θ = 0.95) that leads only into terrible links (θ = 0.2). A policy that
// judges links in isolation latches onto the decoy; a policy that accounts
// for the downstream cost finds the planted path.
func PlantedGraph(layers, width int, rng *rand.Rand) (g *Graph, src, dst int) {
	if width < 2 {
		panic("bandit: PlantedGraph needs width >= 2")
	}
	n := 2 + layers*width
	g = NewGraph(n)
	src, dst = 0, n-1
	node := func(layer, i int) int { return 1 + layer*width + i }
	base := func() float64 { return 0.2 + rng.Float64()*0.35 }
	for i := 0; i < width; i++ {
		g.AddLink(src, node(0, i), base())
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.AddLink(node(l, i), node(l+1, j), base())
			}
		}
	}
	for i := 0; i < width; i++ {
		g.AddLink(node(layers-1, i), dst, base())
	}
	// Planted path through index 1 of every layer.
	g.AddLink(src, node(0, 1), 0.7)
	for l := 0; l+1 < layers; l++ {
		g.AddLink(node(l, 1), node(l+1, 1), 0.9)
	}
	g.AddLink(node(layers-1, 1), dst, 0.9)
	// Decoy: shiny first hop into node 0 of layer 0, whose outgoing links
	// are all bad.
	g.AddLink(src, node(0, 0), 0.95)
	if layers > 1 {
		for j := 0; j < width; j++ {
			g.AddLink(node(0, 0), node(1, j), 0.2)
		}
	} else {
		g.AddLink(node(0, 0), dst, 0.2)
	}
	return g, src, dst
}

// RankPaths returns all loop-free src→dst paths sorted from best (lowest
// expected delay) to worst, together with their expected delays.
func (g *Graph) RankPaths(src, dst int) ([][]int, []float64) {
	paths := g.Paths(src, dst, 0)
	sort.Slice(paths, func(i, j int) bool {
		return g.ExpectedDelay(paths[i]) < g.ExpectedDelay(paths[j])
	})
	delays := make([]float64, len(paths))
	for i, p := range paths {
		delays[i] = g.ExpectedDelay(p)
	}
	return paths, delays
}
