//go:build amd64

package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// goldenShortFigures is an FNV-64a hash over the rows of every figure that
// trains no model, run at Short: the overlay, pub/sub, bandit and relay
// layers end to end. It was recorded on the commit before issue 25's
// deletions, with Fig 5c's tie-break and Table 3's sorted curve keys
// applied, and must never be re-recorded to make a change pass: a change
// meant to be behaviour-neutral leaves every row where it was.
const goldenShortFigures = 0x292799d81335a14f

// shortFigureRows renders each no-training figure's rows at Short, in a
// fixed order.
func shortFigureRows() []string {
	o := shortOpts()
	figs := []struct {
		name string
		run  func() any
	}{
		{"fig5a", func() any { return Fig5aZones(o) }},
		{"fig5b", func() any { return Fig5bMasterDistribution(o) }},
		{"fig5c", func() any { return Fig5cMastersPerZone(o) }},
		{"fig5d", func() any { return Fig5dTreeBalance(o) }},
		{"fig6ab", func() any { return Fig6Scale(o, 4) }},
		{"fig6c", func() any { return Fig6cFanout(o) }},
		{"fig7", func() any { return Fig7Traffic(o) }},
		{"fig10", func() any { return Fig10Regret(o) }},
		{"fig11", func() any { return Fig11PathFrequencies(o) }},
		{"fig12", func() any { return Fig12Recovery(o) }},
		{"aggregation", func() any { return AblationInNetworkAggregation(o) }},
		{"multiring", func() any { return AblationMultiRing(o) }},
		{"relay", func() any { return AblationAdaptiveRelay(o) }},
	}
	out := make([]string, len(figs))
	for i, f := range figs {
		out[i] = fmt.Sprintf("%s %+v", f.name, f.run())
	}
	return out
}

// TestShortFiguresAreGolden runs every no-training figure three times in
// one process and requires identical rows each time (a figure that iterates
// a map into its output fails here), then pins all of them by one hash.
func TestShortFiguresAreGolden(t *testing.T) {
	first := shortFigureRows()
	for run := 2; run <= 3; run++ {
		again := shortFigureRows()
		for i := range first {
			if again[i] != first[i] {
				t.Errorf("run %d differs from run 1:\n%s\nvs\n%s", run, again[i], first[i])
			}
		}
	}
	h := fnv.New64a()
	for _, rows := range first {
		h.Write([]byte(rows))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != goldenShortFigures {
		t.Errorf("short figure rows hash to %#016x, recorded %#016x", got, goldenShortFigures)
	}
}
