package ring

import (
	"math/rand"
	"sort"

	"totoro/internal/ids"
)

// BuildStatic wires an entire population of nodes into a consistent overlay
// without exchanging any messages, in O(N·log N) time.
//
// The paper's scalability experiments emulate up to 100k edge nodes (§7.1);
// joining them one message at a time would dominate experiment runtime
// while measuring nothing the paper reports. BuildStatic constructs exactly
// the state the join protocol converges to: full leaf sets from ring order,
// and locality-aware routing tables populated by recursive digit
// partitioning. Dynamic joins and repairs remain fully functional on top of
// a statically built overlay.
func BuildStatic(nodes []*Node, rng *rand.Rand) {
	if len(nodes) == 0 {
		return
	}
	b := nodes[0].cfg.B
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return nodes[order[i]].self.ID.Less(nodes[order[j]].self.ID)
	})

	// Leaf sets from ring order.
	n := len(order)
	for pos, idx := range order {
		node := nodes[idx]
		half := node.cfg.LeafSetSize / 2
		for k := 1; k <= half && k < n; k++ {
			succ := nodes[order[(pos+k)%n]]
			pred := nodes[order[(pos-k%n+n)%n]]
			node.insertLeaf(succ.self)
			node.insertLeaf(pred.self)
		}
		node.joined = true
	}

	// Routing tables by recursive partition on digits: every member of a
	// prefix group gets, for each sibling group, one contact sampled from
	// that sibling (preferring proximity when configured).
	numDigits := ids.NumDigits(b)
	var fill func(group []int, row int)
	fill = func(group []int, row int) {
		if len(group) <= 1 || row >= numDigits {
			return
		}
		buckets := make(map[int][]int)
		for _, idx := range group {
			d := nodes[idx].self.ID.Digit(row, b)
			buckets[d] = append(buckets[d], idx)
		}
		if len(buckets) == 1 {
			// All members share this digit too; descend without fan-out.
			for _, members := range buckets {
				fill(members, row+1)
			}
			return
		}
		digits := make([]int, 0, len(buckets))
		for d := range buckets {
			digits = append(digits, d)
		}
		sort.Ints(digits)
		for _, d := range digits {
			members := buckets[d]
			for _, m := range members {
				node := nodes[m]
				for _, d2 := range digits {
					if d2 == d {
						continue
					}
					node.setRT(row, d2, pickContact(nodes, buckets[d2], node, rng))
				}
			}
			fill(members, row+1)
		}
	}
	fill(order, 0)
}

// pickContact samples up to four members of the bucket and returns the one
// closest to node by its proximity metric (or the first sample when no
// metric is configured). This mirrors Pastry's locality-aware table
// construction.
func pickContact(nodes []*Node, bucket []int, node *Node, rng *rand.Rand) Contact {
	k := 4
	if len(bucket) < k {
		k = len(bucket)
	}
	best := Contact{}
	bestD := 0.0
	for t := 0; t < k; t++ {
		c := nodes[bucket[rng.Intn(len(bucket))]].self
		if node.cfg.Proximity == nil {
			return c
		}
		d := node.cfg.Proximity(node.self.Addr, c.Addr)
		if best.IsZero() || d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
