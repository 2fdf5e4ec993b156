package simnet

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

const (
	// hugeHeapMin is the smallest estimate worth the forced GC (measured in
	// DESIGN.md §4.8 "Memory"); hugeBlock bounds one allocation of it.
	hugeHeapMin = 64 << 20
	hugeBlock   = 64 << 20
	hugePage    = 2 << 20
)

// hugeReserved is what this process has reserved so far. Freed, that heap
// keeps its advice, so a second large fleet reserves only what exceeds it.
var hugeReserved struct {
	sync.Mutex
	bytes int64
}

// ReserveHugePages makes the next estimate bytes of heap fault in as 2 MB
// transparent huge pages when THP runs in madvise mode, as the Go runtime
// never advises its heap. It allocates untouched blocks of fresh OS
// memory, advises their 2 MB-aligned interiors MADV_HUGEPAGE, drops them
// and runs one GC: the spans handed out next come from the lowest free
// addresses, which are these. It moves where objects sit, never what the
// program computes. Below hugeHeapMin it returns without allocating.
func ReserveHugePages(estimate int64) {
	if estimate < hugeHeapMin {
		return
	}
	hugeReserved.Lock()
	defer hugeReserved.Unlock()
	want := min(estimate-hugeReserved.bytes, hugeHeadroom())
	if want < hugeHeapMin || !thpAdvisable() {
		return
	}
	blocks := make([][]byte, 0, want/hugeBlock+1)
	for left := want; left > 0; left -= hugeBlock {
		b := make([]byte, min(left, hugeBlock))
		base := int(uintptr(unsafe.Pointer(unsafe.SliceData(b))))
		lo := (base+hugePage-1)&^(hugePage-1) - base
		if hi := (base+len(b))&^(hugePage-1) - base; lo < hi {
			_ = syscall.Madvise(b[lo:hi], syscall.MADV_HUGEPAGE) // refused, the pages stay 4 KB
		}
		blocks = append(blocks, b)
	}
	hugeReserved.bytes += want
	runtime.KeepAlive(blocks) // live until here, so no block reuses another
	runtime.GC()
}

// thpAdvisable reports whether the advice changes anything: THP is in
// madvise mode (under always the heap is huge already, under never it
// cannot be) and GODEBUG does not set disablethp=1.
func thpAdvisable() bool {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	off := err != nil || !strings.Contains(string(mode), "[madvise]")
	for _, kv := range strings.Split(os.Getenv("GODEBUG"), ",") {
		off = off || kv == "disablethp=1"
	}
	return !off
}

// hugeHeadroom caps a reservation at half of what the runtime's memory
// limit leaves, and at physical memory.
func hugeHeadroom() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	room := (debug.SetMemoryLimit(-1) - int64(ms.Sys-ms.HeapReleased)) / 2
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		room = min(room, int64(si.Totalram)*int64(si.Unit))
	}
	return room
}
