// Package wal implements the append-only record log backing the engine's
// durable state (internal/store): CRC-guarded varint-framed records over a
// flat byte stream, written so that a crash mid-append — a torn tail — is
// always recoverable by truncating back to the last intact record.
//
// Record layout on the stream:
//
//	uvarint(len(body)) | crc32c(body) as 4 little-endian bytes | body
//
// The length prefix mirrors the v2 network framing (internal/wire/codec),
// so a persisted record costs the same arithmetic as a network frame; the
// checksum is what the network does not need (TCP already checksums) but a
// disk does: it turns bit rot and torn writes into a clean prefix cut
// instead of a garbage replay.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	sync2 "sync" // the plain name collides with Writer's sync field
)

// MaxRecordBytes caps one record's claimed body length before any
// allocation happens on its behalf; a length prefix beyond it marks the
// tail malformed. Matches the network codec's frame cap.
const MaxRecordBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends one framed record to dst and returns the extended
// slice (append-style API, so callers can frame into a reused buffer).
func AppendRecord(dst, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// FrameSize returns the on-disk size of one record with the given body
// length: the uvarint length prefix, the 4-byte checksum, and the body.
func FrameSize(bodyLen int) int {
	return uvarintLen(uint64(bodyLen)) + 4 + bodyLen
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// Scan walks b from the front and returns the bodies of every intact
// record plus the byte offset where the valid prefix ends. It never fails:
// a truncated length prefix, an over-limit length claim, a short tail, or
// a checksum mismatch all simply end the scan — whatever follows is a torn
// or corrupt tail the caller should discard (Writer truncates the file to
// the returned offset on open). The returned bodies alias b.
func Scan(b []byte) (bodies [][]byte, valid int) {
	off := 0
	for {
		n, k := binary.Uvarint(b[off:])
		if k <= 0 || n > MaxRecordBytes {
			return bodies, off
		}
		if k != uvarintLen(n) {
			return bodies, off // non-canonical length prefix: not ours
		}
		if len(b)-off-k < 4 {
			return bodies, off
		}
		crc := binary.LittleEndian.Uint32(b[off+k:])
		start := off + k + 4
		if len(b)-start < int(n) {
			return bodies, off
		}
		body := b[start : start+int(n)]
		if crc32.Checksum(body, castagnoli) != crc {
			return bodies, off
		}
		bodies = append(bodies, body)
		off = start + int(n)
	}
}

// Writer appends framed records to a log file. Open recovers the file
// first — scanning it and truncating any torn tail — so an append after a
// crash always starts at a record boundary.
//
// The writer is goroutine-safe: one mutex covers the write and, in
// synchronous mode, the fsync that follows it.
type Writer struct {
	f    *os.File
	sync bool

	mu   sync2.Mutex // guards file writes, size, buf, herr
	size int64
	buf  []byte
	herr error // sticky write error; appends after it are refused
}

// Open opens (creating if needed) the log at path, truncates any torn
// tail, and returns a Writer positioned for appending plus the bodies of
// the intact records. sync makes every Append fsync before returning
// (durability against power loss, at ~disk-flush latency per record).
func Open(path string, sync bool) (*Writer, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	bodies, valid := Scan(raw)
	if valid != len(raw) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Writer{f: f, sync: sync, size: int64(valid)}, bodies, nil
}

// Size returns the current log length in bytes.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Append frames body onto the log, fsyncing if the writer is synchronous.
// After a failed append the log may hold a torn tail; the writer goes
// sticky-failed (every later Append returns the same error) so the caller
// sees a consistent "storage down" signal rather than interleaved frames.
func (w *Writer) Append(body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.herr != nil {
		return w.herr
	}
	w.buf = AppendRecord(w.buf[:0], body)
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	w.herr = err
	return err
}

// Truncate drops every record (after a snapshot has captured their
// effects) and clears any sticky error: a truncated log is back at a
// record boundary whatever the failed append left behind.
func (w *Writer) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.size = 0
	w.herr = nil
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// Close syncs and closes the log.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
