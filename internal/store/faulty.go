package store

import "fmt"

// Faulty wraps a Store and injects disk failures on command: fsync
// errors, short writes, and out-of-space conditions. It exists to prove
// the engine's journal-before-ack contract under a failing disk — an
// append error must surface before the corresponding network action, and
// a node whose journal starts failing must either crash cleanly or
// degrade to non-durable loudly, never ack state it silently lost.
//
// Faults toggle with Fail/Heal so a nemesis schedule can open and close
// fault windows. Like every Store, Faulty is driven from the engine's
// event loop and is not goroutine-safe.

// FaultKind selects which disk failure Fail injects.
type FaultKind int

const (
	// FaultFsync models an fsync failure: the write may sit in the page
	// cache but durability cannot be promised, so the append errors and
	// nothing is considered journaled.
	FaultFsync FaultKind = iota
	// FaultShortWrite models a torn append: a prefix of the frame lands
	// before the error. Over a *Mem inner store the torn bytes are really
	// written, so recovery exercises the WAL's prefix-tolerant scan.
	FaultShortWrite
	// FaultENOSPC models a full disk: the append fails cleanly with
	// nothing written.
	FaultENOSPC
)

func (k FaultKind) String() string {
	switch k {
	case FaultFsync:
		return "fsync"
	case FaultShortWrite:
		return "short-write"
	case FaultENOSPC:
		return "enospc"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Faulty is the fault-injecting Store wrapper.
type Faulty struct {
	inner   Store
	kind    FaultKind
	failing bool

	// Appends counts successful pass-through appends; Failed counts
	// appends rejected by an active fault.
	Appends, Failed int
}

// NewFaulty wraps inner. The wrapper starts healthy.
func NewFaulty(inner Store) *Faulty { return &Faulty{inner: inner} }

// Fail opens a fault window: every Append and Snapshot fails with the
// given kind until Heal.
func (f *Faulty) Fail(kind FaultKind) {
	f.kind = kind
	f.failing = true
}

// Heal closes the fault window. Note that a correctly hardened engine
// does NOT resume journaling after a heal: the fault window may have
// torn the log (FaultShortWrite), and appending past a gap turns a
// clean journal prefix into ack-then-lose on the next crash.
func (f *Faulty) Heal() { f.failing = false }

// Append implements Store.
func (f *Faulty) Append(rec any) error {
	if !f.failing {
		if err := f.inner.Append(rec); err != nil {
			return err
		}
		f.Appends++
		return nil
	}
	f.Failed++
	switch f.kind {
	case FaultShortWrite:
		// Tear the frame for real when we can see the inner bytes: land
		// all but its last byte. wal.Scan's prefix-tolerance drops the torn
		// tail on recovery — and anything a buggy engine appended after it.
		if m, ok := f.inner.(*Mem); ok {
			_ = m.write(rec, 1) // an unencodable record tears nothing
		}
		return fmt.Errorf("store: injected short write (%v)", f.kind)
	case FaultENOSPC:
		return fmt.Errorf("store: injected write failure: no space left on device")
	default:
		return fmt.Errorf("store: injected fsync failure")
	}
}

// Snapshot implements Store. A failing disk fails snapshots too; the
// engine's snapshot path tolerates this (the WAL is only truncated after
// a snapshot lands, so a failed snapshot leaves a consistent journal).
func (f *Faulty) Snapshot(state any) error {
	if f.failing {
		f.Failed++
		return fmt.Errorf("store: injected snapshot failure (%v)", f.kind)
	}
	return f.inner.Snapshot(state)
}

// Load implements Store.
func (f *Faulty) Load() (state any, recs []any, err error) { return f.inner.Load() }

// Close implements Store.
func (f *Faulty) Close() error { return f.inner.Close() }
