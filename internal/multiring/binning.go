// Package multiring implements Totoro's locality-aware P2P multi-ring
// structure (paper §4.2).
//
// The single global ring of internal/ring is divided into m smaller,
// locality-aware rings ("edge zones") using Ratnasamy and Shenker's
// distributed binning algorithm: every node measures its RTT to a small set
// of landmark hosts, orders the landmarks by RTT, and quantizes each RTT
// into levels; nodes with the same (order, levels) signature land in the
// same bin. Each zone is characterized by a maximum desired round-trip time
// between members, its diameter.
//
// On top of the zones, the package implements the paper's boundary-aware
// two-level routing table. A NodeId is split as D = P·2^n + S where the
// m-bit prefix P is the zone ID and the n-bit suffix S identifies the node
// within its zone. The i-th level-1 entry at node x targets zone
// (P_x + 2^(i-1)) mod 2^m and the i-th level-2 entry at node y targets
// suffix (S_y + 2^(i-1)) mod 2^n — Chord-style fingers over the zone ring
// and the intra-zone ring respectively. Because inter-zone traffic flows
// only through level-1 entries, a zone administrator can enforce
// administrative isolation by blocking packets whose destination prefix
// differs from the local zone unless their application is multi-zone.
package multiring

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is a planar coordinate for a node or landmark. The experiments
// derive RTTs from Euclidean distance, mirroring the paper's use of
// geographic distance in the EUA dataset (§7.2).
type Point struct {
	X, Y float64
}

// RTTPerUnit converts one unit of Euclidean distance into round-trip time.
const RTTPerUnit = 100 * time.Microsecond

// RTT estimates the round-trip time between two points.
func RTT(a, b Point) time.Duration {
	dx, dy := a.X-b.X, a.Y-b.Y
	return time.Duration(math.Sqrt(dx*dx+dy*dy) * float64(RTTPerUnit))
}

// BinSignature computes a node's distributed-binning signature against the
// landmark set: the landmark indices ordered by increasing RTT, plus each
// RTT quantized into the given level thresholds. Nodes sharing a signature
// belong to the same bin.
func BinSignature(p Point, landmarks []Point, levels []time.Duration) string {
	type lm struct {
		idx int
		rtt time.Duration
	}
	ls := make([]lm, len(landmarks))
	for i, l := range landmarks {
		ls[i] = lm{idx: i, rtt: RTT(p, l)}
	}
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].rtt != ls[j].rtt {
			return ls[i].rtt < ls[j].rtt
		}
		return ls[i].idx < ls[j].idx
	})
	sig := ""
	for _, l := range ls {
		sig += fmt.Sprintf("%d,", l.idx)
	}
	sig += ":"
	for _, l := range ls {
		lvl := 0
		for _, th := range levels {
			if l.rtt > th {
				lvl++
			}
		}
		sig += fmt.Sprintf("%d,", lvl)
	}
	return sig
}

// Binning is the outcome of running distributed binning over a node
// population.
type Binning struct {
	// MBits is the zone-prefix width; at most 2^MBits zones exist.
	MBits int
	// ZoneOf maps node index -> zone ID.
	ZoneOf []uint64
	// Members maps zone ID -> node indices.
	Members map[uint64][]int
	// Diameter maps zone ID -> estimated max member-to-member RTT.
	Diameter map[uint64]time.Duration
}

// NumZones returns the number of non-empty zones.
func (b *Binning) NumZones() int { return len(b.Members) }

// AssignZones runs distributed binning over the node positions and packs
// the resulting bins into at most 2^mBits zones. When there are more bins
// than zones, the rarest bins are merged into the most similar frequent bin
// (longest shared landmark-order prefix), which is how a deployment with a
// fixed m-bit zone prefix absorbs unusual vantage points.
func AssignZones(positions []Point, landmarks []Point, levels []time.Duration, mBits int) *Binning {
	sigOf := make([]string, len(positions))
	bySig := make(map[string][]int)
	for i, p := range positions {
		s := BinSignature(p, landmarks, levels)
		sigOf[i] = s
		bySig[s] = append(bySig[s], i)
	}
	// Deterministic order: by descending population then signature.
	sigs := make([]string, 0, len(bySig))
	for s := range bySig {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool {
		a, b := len(bySig[sigs[i]]), len(bySig[sigs[j]])
		if a != b {
			return a > b
		}
		return sigs[i] < sigs[j]
	})

	maxZones := 1 << uint(mBits)
	zoneOfSig := make(map[string]uint64)
	kept := sigs
	if len(sigs) > maxZones {
		kept = sigs[:maxZones]
	}
	for z, s := range kept {
		zoneOfSig[s] = uint64(z)
	}
	for _, s := range sigs[len(kept):] {
		zoneOfSig[s] = zoneOfSig[mostSimilar(s, kept)]
	}

	b := &Binning{
		MBits:    mBits,
		ZoneOf:   make([]uint64, len(positions)),
		Members:  make(map[uint64][]int),
		Diameter: make(map[uint64]time.Duration),
	}
	for i := range positions {
		z := zoneOfSig[sigOf[i]]
		b.ZoneOf[i] = z
		b.Members[z] = append(b.Members[z], i)
	}
	for z, members := range b.Members {
		b.Diameter[z] = estimateDiameter(positions, members)
	}
	return b
}

// mostSimilar returns the kept signature sharing the longest common prefix
// with s (the landmark ordering dominates the prefix, so similarity in
// ordering wins).
func mostSimilar(s string, kept []string) string {
	best, bestLen := kept[0], -1
	for _, k := range kept {
		l := commonPrefixLen(s, k)
		if l > bestLen {
			best, bestLen = k, l
		}
	}
	return best
}

func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// estimateDiameter approximates the max pairwise RTT within a member set as
// twice the max RTT to the centroid (exact pairwise scan is quadratic and
// unnecessary for a configuration parameter).
func estimateDiameter(positions []Point, members []int) time.Duration {
	if len(members) == 0 {
		return 0
	}
	var cx, cy float64
	for _, i := range members {
		cx += positions[i].X
		cy += positions[i].Y
	}
	c := Point{X: cx / float64(len(members)), Y: cy / float64(len(members))}
	var worst time.Duration
	for _, i := range members {
		if r := RTT(positions[i], c); r > worst {
			worst = r
		}
	}
	return 2 * worst
}
