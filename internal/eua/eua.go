// Package eua synthesizes the EUA dataset used by the paper's scalability
// study (§7.2): the geographic locations of 95,271 cellular base stations
// across 12 Australian states and regions, with the exact per-region node
// counts the paper reports. Positions are drawn around region centroids on
// a planar projection (1 unit ≈ 1 km), and RTTs derive from distance via
// internal/multiring. The real dataset is not redistributable here; this
// generator preserves the two properties the experiments consume — the
// region populations and their relative geography.
package eua

import (
	"math/rand"

	"totoro/internal/multiring"
)

// Region is one Australian state/region of the dataset.
type Region struct {
	Name   string
	Count  int
	Center multiring.Point
	// Spread is the standard deviation of node scatter around the center
	// (km); larger states scatter wider.
	Spread float64
}

// Regions returns the 12 regions with the paper's exact node counts
// (§7.2) and approximate centroid geometry (km on a planar projection of
// Australia, origin near Alice Springs).
func Regions() []Region {
	return []Region{
		{Name: "ACT", Count: 931, Center: multiring.Point{X: 1230, Y: -920}, Spread: 40},
		{Name: "ANT", Count: 15, Center: multiring.Point{X: -150, Y: 1500}, Spread: 120},
		{Name: "EXT", Count: 8, Center: multiring.Point{X: -2200, Y: -1700}, Spread: 150},
		{Name: "ISL", Count: 36, Center: multiring.Point{X: 1900, Y: 600}, Spread: 140},
		{Name: "NSW", Count: 24574, Center: multiring.Point{X: 1150, Y: -750}, Spread: 260},
		{Name: "NT", Count: 3137, Center: multiring.Point{X: 0, Y: 600}, Spread: 320},
		{Name: "QLD", Count: 21576, Center: multiring.Point{X: 950, Y: 300}, Spread: 380},
		{Name: "SA", Count: 7682, Center: multiring.Point{X: 150, Y: -700}, Spread: 280},
		{Name: "TAS", Count: 3213, Center: multiring.Point{X: 1080, Y: -1550}, Spread: 110},
		{Name: "VIC", Count: 18163, Center: multiring.Point{X: 900, Y: -1080}, Spread: 180},
		{Name: "WA", Count: 15933, Center: multiring.Point{X: -1500, Y: -350}, Spread: 420},
		{Name: "WLD", Count: 3, Center: multiring.Point{X: -400, Y: -1600}, Spread: 60},
	}
}

// Total is the dataset's node count.
const Total = 95271

// GenerateScaled draws a proportionally downsampled dataset with about n
// nodes (each region keeps at least one node); n = Total draws the full
// dataset.
func GenerateScaled(n int, rng *rand.Rand) (positions []multiring.Point, regionOf []int) {
	regions := Regions()
	for ri, r := range regions {
		cnt := r.Count * n / Total
		if cnt < 1 {
			cnt = 1
		}
		for i := 0; i < cnt; i++ {
			positions = append(positions, multiring.Point{
				X: r.Center.X + rng.NormFloat64()*r.Spread,
				Y: r.Center.Y + rng.NormFloat64()*r.Spread,
			})
			regionOf = append(regionOf, ri)
		}
	}
	return positions, regionOf
}

// Landmarks returns binning landmarks: the centroids of the five most
// populous regions, which gives the distributed binning algorithm enough
// vantage diversity to separate the map.
func Landmarks() []multiring.Point {
	return []multiring.Point{
		{X: 1150, Y: -750},  // NSW
		{X: 950, Y: 300},    // QLD
		{X: 900, Y: -1080},  // VIC
		{X: -1500, Y: -350}, // WA
		{X: 0, Y: 600},      // NT
	}
}
