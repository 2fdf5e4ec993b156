package store

import (
	"fmt"
	"os"
	"path/filepath"

	"totoro/internal/store/wal"
)

// FileConfig parameterizes a file-backed store.
type FileConfig struct {
	// Sync fsyncs the WAL on every append. Off by default: the journal
	// then survives process crashes (the common edge failure) but a
	// power cut can cost the records since the last OS flush — the same
	// trade most edge databases default to.
	Sync bool
}

// File is the file-backed Store for totoro-node: a WAL at <dir>/wal.log
// and the latest snapshot at <dir>/snapshot.dat, both in the framed
// record format of internal/store/wal. Snapshots are written atomically
// (tmp file, fsync, rename) and only then is the WAL truncated; the LSN
// embedded in each record makes the crash window between those two steps
// idempotent on replay.
type File struct {
	dir      string
	w        *wal.Writer
	lsn      uint64
	snapSize int64 // bytes in snapshot.dat
}

const (
	walFile  = "wal.log"
	snapFile = "snapshot.dat"
)

// Open opens (creating if needed) the store rooted at dir, recovering the
// WAL's intact prefix — any torn tail from a crash mid-append is
// truncated away.
func Open(dir string, cfg FileConfig) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, bodies, err := wal.Open(filepath.Join(dir, walFile), cfg.Sync)
	if err != nil {
		return nil, err
	}
	f := &File{dir: dir, w: w}
	if fi, err := os.Stat(filepath.Join(dir, snapFile)); err == nil {
		f.snapSize = fi.Size()
	}
	// Seed the LSN from everything on disk so appends continue the
	// sequence even if the caller never calls Load.
	snapLSN, _, _ := f.readSnapshot()
	_, last := decodeLog(bodies, snapLSN)
	f.lsn = last
	return f, nil
}

// readSnapshot reads and decodes snapshot.dat. A missing file is not an
// error (no snapshot yet); an unreadable or corrupt one is reported so
// the caller can decide whether a WAL-only boot is acceptable.
func (f *File) readSnapshot() (lsn uint64, state any, err error) {
	raw, err := os.ReadFile(filepath.Join(f.dir, snapFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, nil
		}
		return 0, nil, err
	}
	bodies, valid := wal.Scan(raw)
	if len(bodies) != 1 || valid != len(raw) {
		return 0, nil, fmt.Errorf("store: corrupt snapshot (%d intact records, %d/%d valid bytes)",
			len(bodies), valid, len(raw))
	}
	return decodeBody(bodies[0])
}

// Append implements Store.
func (f *File) Append(rec any) error {
	if err := registered(rec); err != nil {
		return err
	}
	body, err := encodeBody(f.lsn+1, rec)
	if err != nil {
		return err
	}
	if err := f.w.Append(body); err != nil {
		return err
	}
	f.lsn++
	return nil
}

// Snapshot implements Store. The image lands on disk atomically: a crash
// at any point leaves either the old snapshot or the new one, never a
// torn mix, and the WAL is only truncated after the rename is durable.
func (f *File) Snapshot(state any) error {
	if err := registered(state); err != nil {
		return err
	}
	body, err := encodeBody(f.lsn, state)
	if err != nil {
		return err
	}
	framed := wal.AppendRecord(nil, body)
	tmp := filepath.Join(f.dir, snapFile+".tmp")
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(framed); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, snapFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(f.dir)
	f.snapSize = int64(len(framed))
	return f.w.Truncate()
}

// Outgrown implements Store.
func (f *File) Outgrown() bool {
	n := f.w.Size()
	return n > 0 && n >= f.snapSize
}

// syncDir flushes directory metadata so the snapshot rename is durable;
// best effort — some filesystems refuse fsync on directories.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Load implements Store: the latest intact snapshot plus every decodable
// record past it, read back from disk (so it measures true cold-recovery
// cost). A corrupt snapshot is surfaced as an error alongside a
// best-effort WAL-only replay (state == nil).
func (f *File) Load() (state any, recs []any, err error) {
	snapLSN, state, serr := f.readSnapshot()
	raw, rerr := os.ReadFile(filepath.Join(f.dir, walFile))
	if rerr != nil && serr == nil {
		serr = rerr
	}
	bodies, _ := wal.Scan(raw)
	recs, last := decodeLog(bodies, snapLSN)
	if last > f.lsn {
		f.lsn = last
	}
	return state, recs, serr
}

// Close implements Store.
func (f *File) Close() error { return f.w.Close() }
