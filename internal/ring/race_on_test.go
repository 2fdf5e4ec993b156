//go:build race

package ring

// raceEnabled: the race detector instruments slice growth with allocations
// of its own, so allocation budgets do not hold under it.
const raceEnabled = true
