package simnet

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// anonHugeKB reads the process's AnonHugePages from /proc.
func anonHugeKB(t *testing.T) int64 {
	t.Helper()
	rollup, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		t.Skipf("cannot read /proc: %v", err)
	}
	for _, line := range strings.Split(string(rollup), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "AnonHugePages:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			return kb
		}
	}
	t.Skip("no AnonHugePages in /proc/self/smaps_rollup")
	return 0
}

type hugeObj struct {
	next *hugeObj
	pad  [5]uint64
}

// TestReservedHeapComesBackHuge reserves 128 MiB and then allocates 64 MiB
// of small pointerful objects, as a fleet's construction does: they must
// fault in on huge pages. Run again in the same process (-count, -cpu) it
// reserves nothing more and reuses the first run's freed, scavenged heap,
// which keeps its advice.
func TestReservedHeapComesBackHuge(t *testing.T) {
	if !thpAdvisable() {
		t.Skip("transparent huge pages are not in madvise mode, or GODEBUG has disablethp=1")
	}
	debug.FreeOSMemory() // what an earlier run left resident goes back
	before := anonHugeKB(t)
	ReserveHugePages(128 << 20)
	var head *hugeObj
	for range (64 << 20) / 48 {
		head = &hugeObj{next: head}
	}
	after := anonHugeKB(t)
	runtime.KeepAlive(head)
	if grew := after - before; grew < 32<<10 {
		t.Errorf("AnonHugePages grew by %d kB over 64 MiB of objects, want at least 32 MiB", grew)
	}
}

// TestSmallEstimateReservesNothing: below the threshold the reservation
// allocates nothing and runs no GC. AllocsPerRun averages over 100 calls,
// so a stray allocation by another goroutine does not count.
func TestSmallEstimateReservesNothing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(100, func() { ReserveHugePages(hugeHeapMin - 1) })
	runtime.ReadMemStats(&after)
	if allocs != 0 || after.NumGC != before.NumGC {
		t.Errorf("below the threshold: %d GCs over 101 calls, %v allocations a call", after.NumGC-before.NumGC, allocs)
	}
}
