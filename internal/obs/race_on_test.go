//go:build race

package obs

// raceEnabled: the race detector pads allocations, so byte budgets measured
// from the heap do not hold under it.
const raceEnabled = true
