// Package store is the engine's durable-state layer: an append-only WAL
// of engine mutations plus the state snapshots that compact it, behind a
// Store interface small enough to have two honest implementations — an
// in-memory one for the deterministic simulator (a simulated restart
// reboots from it) and a file-backed one for totoro-node.
//
// Records and snapshots are encoded with the v2 wire codec
// (internal/wire/codec), so the same registration, losslessness, and
// determinism invariants that guard network frames guard persisted frames
// (totoro-vet's wiresafe analyzer certifies both from the same
// registries). Every record carries a log sequence number; a snapshot
// remembers the LSN it covers, and replay skips records at or below it —
// which makes the snapshot-then-truncate pair crash-safe without any
// atomicity between the two files (a crash after the snapshot rename but
// before the WAL truncation just replays records the snapshot already
// folded, idempotently skipped by LSN).
package store

import (
	"fmt"
	"reflect"
	"sync"

	"totoro/internal/store/wal"
	"totoro/internal/wire/codec"
)

// Store persists engine mutations and reconstructs them on boot.
//
// Append journals one mutation record. Snapshot replaces the journal with
// one state image (records appended before the snapshot are not replayed
// again). Outgrown reports that the records appended since the last
// snapshot hold at least as many bytes as that snapshot (an empty journal
// never has): a caller that snapshots whenever it is true, before its next
// append, keeps the journal at about twice the state it records and, while
// that state holds its size, encodes at most twice the bytes it journals.
// Load returns the latest snapshot state (nil if none) and every record
// appended after it, in append order. Implementations are not
// goroutine-safe: the engine calls them from its event loop.
type Store interface {
	Append(rec any) error
	Snapshot(state any) error
	Outgrown() bool
	Load() (state any, recs []any, err error)
	Close() error
}

// registry of allowed record/snapshot prototypes. Declarative + enforced:
// Append/Snapshot refuse types that were never registered, so a new
// record type that skipped registration (and therefore skipped the
// wiresafe certification pass that keys off RegisterRecords calls) fails
// loudly in the first test that journals it.
var (
	recMu    sync.Mutex
	recTypes = map[reflect.Type]bool{}
)

// RegisterRecords declares the prototypes a Store may be asked to persist.
// totoro-vet's wiresafe analyzer certifies every type passed here exactly
// like a network wire type: codec-registered and structurally lossless.
func RegisterRecords(protos ...any) {
	recMu.Lock()
	defer recMu.Unlock()
	for _, p := range protos {
		recTypes[reflect.TypeOf(p)] = true
	}
}

func registered(rec any) error {
	recMu.Lock()
	ok := recTypes[reflect.TypeOf(rec)]
	recMu.Unlock()
	if !ok {
		return fmt.Errorf("store: unregistered record type %T (add it to RegisterRecords)", rec)
	}
	return nil
}

// writeBody writes one record body into e: uvarint(lsn) followed by the
// codec-tagged value.
func writeBody(e *codec.Enc, lsn uint64, rec any) error {
	e.Uvarint(lsn)
	e.Value(rec)
	return e.Err()
}

// encodeBody produces one record body in a buffer the caller owns.
func encodeBody(lsn uint64, rec any) ([]byte, error) {
	e := codec.NewEnc()
	defer e.Free()
	if err := writeBody(e, lsn, rec); err != nil {
		return nil, err
	}
	return append([]byte(nil), e.Bytes()...), nil
}

// decodeBody is the inverse. The decoded value never aliases b.
func decodeBody(b []byte) (lsn uint64, rec any, err error) {
	d := codec.NewDec(b)
	lsn = d.Uvarint()
	rec = d.Value()
	if err := d.Err(); err != nil {
		return 0, nil, err
	}
	if d.Rem() != 0 {
		return 0, nil, fmt.Errorf("store: %d trailing bytes in record", d.Rem())
	}
	return lsn, rec, nil
}

// decodeLog folds a framed log's bodies into records, skipping those a
// snapshot at snapLSN already covers. Replay is prefix-tolerant: the
// first undecodable body (version skew, a tag the binary no longer
// knows) ends the replay with whatever decoded cleanly before it.
func decodeLog(bodies [][]byte, snapLSN uint64) (recs []any, last uint64) {
	last = snapLSN
	for _, b := range bodies {
		lsn, rec, err := decodeBody(b)
		if err != nil {
			return recs, last
		}
		if lsn > last {
			last = lsn
		}
		if lsn <= snapLSN {
			continue
		}
		recs = append(recs, rec)
	}
	return recs, last
}

// Mem is the in-memory Store: it persists across a simulated node's
// restart because the harness (not the node) owns it, and it runs every
// byte through the same framing and codec as the file store — a
// simulated recovery exercises the real encode/replay path, only the
// disk is imaginary.
type Mem struct {
	// log is the journal as a list of chunks. A frame never spans two
	// chunks and a written byte is never moved again: the last chunk takes
	// frames while they fit its capacity, then a new one is started, of
	// twice the capacity (memChunkMin to memChunkMax) or, for a frame
	// larger than that, of exactly its size; the doubling starts over
	// after such a frame, so a marker between two images costs no 64 KB.
	log  [][]byte
	size int    // bytes in log
	snap []byte // one framed record: uvarint(lsn) + state value
	lsn  uint64
}

const (
	memChunkMin = 512
	memChunkMax = 64 << 10
)

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Append implements Store.
func (m *Mem) Append(rec any) error {
	if err := registered(rec); err != nil {
		return err
	}
	if err := m.write(rec, 0); err != nil {
		return err
	}
	m.lsn++
	return nil
}

// write frames rec, at the next LSN, onto the journal, less the frame's
// last tear bytes (Faulty's short write; 0 for a whole frame). It frames
// straight from the pooled encoder: the log's copy is the only one an
// image-sized record needs.
func (m *Mem) write(rec any, tear int) error {
	e := codec.NewEnc()
	defer e.Free()
	if err := writeBody(e, m.lsn+1, rec); err != nil {
		return err
	}
	size := wal.FrameSize(len(e.Bytes()))
	last := len(m.log) - 1
	if last < 0 || cap(m.log[last])-len(m.log[last]) < size {
		next := memChunkMin // also after an oversized frame's own chunk
		if last >= 0 && cap(m.log[last]) <= memChunkMax {
			next = min(2*cap(m.log[last]), memChunkMax)
		}
		m.log = append(m.log, make([]byte, 0, max(next, size)))
		last++
	}
	framed := wal.AppendRecord(m.log[last], e.Bytes())
	m.log[last] = framed[:len(framed)-tear]
	m.size += size - tear
	return nil
}

// Snapshot implements Store. The new image overwrites the old one in
// place: Load decodes into fresh values, so nothing aliases it.
func (m *Mem) Snapshot(state any) error {
	if err := registered(state); err != nil {
		return err
	}
	e := codec.NewEnc()
	defer e.Free()
	if err := writeBody(e, m.lsn, state); err != nil {
		return err
	}
	m.snap = wal.AppendRecord(m.snap[:0], e.Bytes())
	// Truncate in place: the chunk list keeps its array, and a regular
	// first chunk stays to take the next frames; every other chunk goes.
	keep := 0
	if len(m.log) > 0 && cap(m.log[0]) <= memChunkMax {
		m.log[0], keep = m.log[0][:0], 1
	}
	clear(m.log[keep:])
	m.log, m.size = m.log[:keep], 0
	return nil
}

// Outgrown implements Store.
func (m *Mem) Outgrown() bool { return m.size > 0 && m.size >= len(m.snap) }

// Load implements Store.
func (m *Mem) Load() (state any, recs []any, err error) {
	snapLSN := uint64(0)
	if len(m.snap) > 0 {
		bodies, _ := wal.Scan(m.snap)
		if len(bodies) == 1 {
			if lsn, st, derr := decodeBody(bodies[0]); derr == nil {
				snapLSN, state = lsn, st
			}
		}
	}
	// Chunk by chunk, up to the first chunk a scan does not consume whole:
	// a torn or corrupt frame ends replay there, as it does in the flat
	// stream, whatever was appended after it.
	var bodies [][]byte
	for _, chunk := range m.log {
		b, valid := wal.Scan(chunk)
		bodies = append(bodies, b...)
		if valid < len(chunk) {
			break
		}
	}
	recs, last := decodeLog(bodies, snapLSN)
	if last > m.lsn {
		m.lsn = last
	}
	return state, recs, nil
}

// Close implements Store.
func (m *Mem) Close() error { return nil }
