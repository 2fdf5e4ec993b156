package eua

import (
	"math/rand"
	"testing"

	"totoro/internal/multiring"
)

func TestRegionCountsMatchPaper(t *testing.T) {
	want := map[string]int{
		"ACT": 931, "ANT": 15, "EXT": 8, "ISL": 36, "NSW": 24574, "NT": 3137,
		"QLD": 21576, "SA": 7682, "TAS": 3213, "VIC": 18163, "WA": 15933, "WLD": 3,
	}
	total := 0
	for _, r := range Regions() {
		if want[r.Name] != r.Count {
			t.Fatalf("region %s count %d want %d", r.Name, r.Count, want[r.Name])
		}
		total += r.Count
	}
	if total != Total {
		t.Fatalf("total %d want %d", total, Total)
	}
}

func TestGenerateFullDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos, reg := GenerateScaled(Total, rng)
	if len(pos) != Total || len(reg) != Total {
		t.Fatalf("generated %d nodes", len(pos))
	}
	counts := map[int]int{}
	for _, r := range reg {
		counts[r]++
	}
	for i, r := range Regions() {
		if counts[i] != r.Count {
			t.Fatalf("region %s generated %d want %d", r.Name, counts[i], r.Count)
		}
	}
}

func TestGenerateScaledProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pos, reg := GenerateScaled(10000, rng)
	if len(pos) < 9000 || len(pos) > 11000 {
		t.Fatalf("scaled size %d", len(pos))
	}
	counts := map[int]int{}
	for _, r := range reg {
		counts[r]++
	}
	// NSW (26% of nodes) should hold roughly 26% of the sample.
	frac := float64(counts[4]) / float64(len(pos))
	if frac < 0.2 || frac > 0.32 {
		t.Fatalf("NSW fraction %.3f", frac)
	}
	// Tiny regions keep at least one node.
	if counts[11] < 1 {
		t.Fatal("WLD lost its nodes")
	}
}

func TestBinningSeparatesEUAZones(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos, _ := GenerateScaled(3000, rng)
	b := multiring.AssignZones(pos, Landmarks(), nil, 5)
	if b.NumZones() < 4 {
		t.Fatalf("only %d zones from a continent-sized map", b.NumZones())
	}
	if b.NumZones() > 32 {
		t.Fatalf("zones %d exceed 2^5", b.NumZones())
	}
}
