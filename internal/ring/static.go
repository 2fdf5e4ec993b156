package ring

import (
	"math/rand"
	"slices"

	"totoro/internal/ids"
)

// member is one node's place in ring order. The contacts sit side by side
// so that sampling a bucket reads this array instead of chasing a *Node.
type member struct {
	c    Contact
	node *Node
}

// BuildStatic wires an entire population of nodes into a consistent overlay
// without exchanging any messages, in O(N·log N) time.
//
// The paper's scalability experiments emulate up to 100k edge nodes (§7.1);
// joining them one message at a time would dominate experiment runtime
// while measuring nothing the paper reports. BuildStatic writes exactly
// the state the join protocol converges to: full leaf sets from ring order,
// and routing tables populated by recursive digit partitioning —
// overwriting, so the same wiring twice changes nothing.
// Dynamic joins and repairs remain fully functional on top of a statically
// built overlay.
func BuildStatic(nodes []*Node, rng *rand.Rand) {
	n := len(nodes)
	if n == 0 {
		return
	}
	b := nodes[0].cfg.B
	numDigits := ids.NumDigits(b)
	sorted := make([]member, n)
	for i, node := range nodes {
		sorted[i] = member{node.self, node}
	}
	slices.SortFunc(sorted, func(x, y member) int { return x.c.ID.Cmp(y.c.ID) })

	// Leaf sets are the next and previous entries of ring order (all the
	// others, each way round, on a ring smaller than a half). The table gets
	// its final depth at once: a node's deepest row is the longest prefix it
	// shares with anyone, and that is with a ring neighbour.
	for pos, m := range sorted {
		node, half := m.node, m.node.cfg.LeafSetSize/2
		node.leafCW, node.leafCCW = slices.Grow(node.leafCW[:0], half), slices.Grow(node.leafCCW[:0], half)
		for k := 1; k <= min(half, n-1); k++ {
			node.leafCW = append(node.leafCW, sorted[(pos+k)%n].c)
			node.leafCCW = append(node.leafCCW, sorted[(pos-k+n)%n].c)
		}
		node.joined = true
		if n > 1 {
			next, prev := sorted[(pos+1)%n].c.ID, sorted[(pos-1+n)%n].c.ID
			node.growRT(min(numDigits, 1+max(ids.CommonPrefix(m.c.ID, next, b), ids.CommonPrefix(m.c.ID, prev, b))))
		}
	}

	// Routing tables by recursive partition on digits: every member of a
	// prefix group gets, for each sibling group, one contact sampled from
	// that sibling. A prefix group is a run of ring order and so are its
	// digit buckets: the group's i-th is sorted[cut[i]:cut[i+1]], cut being
	// its row's stretch of cuts.
	width := 1<<uint(b) + 1
	cuts := make([]int, numDigits*width)
	var fill func(lo, hi, row int)
	fill = func(lo, hi, row int) {
		if hi-lo <= 1 || row >= numDigits {
			return
		}
		cut, k := cuts[row*width:(row+1)*width], 0
		for i, prev := lo, -1; i < hi; i++ {
			if d := sorted[i].c.ID.Digit(row, b); d != prev {
				cut[k], prev = i, d
				k++
			}
		}
		cut[k] = hi
		// One bucket — all members share this digit too — descends at once.
		for i := 0; i < k; i++ {
			for _, m := range sorted[cut[i]:cut[i+1]] {
				for j := 0; j < k; j++ {
					if j != i {
						c := pickContact(sorted[cut[j]:cut[j+1]], rng)
						m.node.setRT(row, c.ID.Digit(row, b), c)
					}
				}
			}
			fill(cut[i], cut[i+1], row+1)
		}
	}
	fill(0, n, 0)
}

// pickContact samples one member of the bucket: a single rng draw per
// routing-table slot, which every simulated run's results depend on.
func pickContact(bucket []member, rng *rand.Rand) Contact {
	return bucket[rng.Intn(len(bucket))].c
}
