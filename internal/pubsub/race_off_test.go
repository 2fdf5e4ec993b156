//go:build !race

package pubsub

const raceEnabled = false
