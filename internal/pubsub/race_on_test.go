//go:build race

package pubsub

// raceEnabled: the race detector allocates on its own account, so the
// allocation pins do not hold under it.
const raceEnabled = true
