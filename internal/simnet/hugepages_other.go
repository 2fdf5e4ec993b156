//go:build !linux

package simnet

// ReserveHugePages does nothing outside Linux: there is no madvise mode of
// transparent huge pages to act on.
func ReserveHugePages(estimate int64) {}
