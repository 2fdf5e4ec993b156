package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"totoro/internal/store/wal"
	"totoro/internal/wire/codec"
)

// Test-local record types, registered like real engine records: a codec
// tag in the app range plus a RegisterRecords declaration.
type testRec struct {
	Seq  int
	Name string
}

type testState struct {
	Vals []float64
	Note string
}

func init() {
	codec.Register(240, testRec{})
	codec.Register(241, testState{})
	RegisterRecords(testRec{}, testState{})
}

func recN(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = testRec{Seq: i + 1, Name: "rec"}
	}
	return out
}

func appendAll(t *testing.T, s Store, recs []any) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemRoundTrip(t *testing.T) {
	m := NewMem()
	want := recN(5)
	appendAll(t, m, want)
	state, recs, err := m.Load()
	if err != nil || state != nil {
		t.Fatalf("Load = state %v, err %v", state, err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("recs = %v, want %v", recs, want)
	}
}

func TestMemSnapshotTruncates(t *testing.T) {
	m := NewMem()
	appendAll(t, m, recN(3))
	if err := m.Snapshot(testState{Vals: []float64{1, 2}, Note: "s"}); err != nil {
		t.Fatal(err)
	}
	if log, snap := m.size, len(m.snap); log != 0 || snap == 0 {
		t.Fatalf("after snapshot: log %d, snap %d", log, snap)
	}
	late := []any{testRec{Seq: 9, Name: "late"}}
	appendAll(t, m, late)
	state, recs, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(state, testState{Vals: []float64{1, 2}, Note: "s"}) {
		t.Fatalf("state = %v", state)
	}
	if !reflect.DeepEqual(recs, late) {
		t.Fatalf("recs = %v, want %v", recs, late)
	}
}

// TestSnapshotCrashWindow reproduces the one crash ordering the
// snapshot/truncate pair cannot make atomic: the snapshot is durable but
// the WAL was never truncated. Replay must skip the records the snapshot
// already folded (LSN guard) and apply only the later ones.
func TestSnapshotCrashWindow(t *testing.T) {
	// Full journal of 5 records, as the un-truncated WAL would hold.
	full := NewMem()
	appendAll(t, full, recN(5))

	// Store that snapshotted after record 3, then appended 4 and 5.
	m := NewMem()
	appendAll(t, m, recN(3))
	if err := m.Snapshot(testState{Note: "at-3"}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, m, recN(5)[3:])

	// Crash window: the WAL still holds all five records.
	m.log = full.log

	state, recs, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(state, testState{Note: "at-3"}) {
		t.Fatalf("state = %v", state)
	}
	if !reflect.DeepEqual(recs, recN(5)[3:]) {
		t.Fatalf("recs = %v, want records 4..5 only", recs)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := recN(4)
	appendAll(t, f, want)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f, err = Open(dir, FileConfig{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	state, recs, err := f.Load()
	if err != nil || state != nil {
		t.Fatalf("Load = state %v, err %v", state, err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("recs = %v, want %v", recs, want)
	}
	// The LSN continues across reopen: snapshot now must cover 4 records.
	if err := f.Snapshot(testState{Note: "cover"}); err != nil {
		t.Fatal(err)
	}
	state, recs, err = f.Load()
	if err != nil || len(recs) != 0 {
		t.Fatalf("after snapshot: %d recs, err %v", len(recs), err)
	}
	if !reflect.DeepEqual(state, testState{Note: "cover"}) {
		t.Fatalf("state = %v", state)
	}
}

func TestFileTornTail(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, f, recN(3))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	f, err = Open(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, recs, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, recN(2)) {
		t.Fatalf("recs = %v, want first 2", recs)
	}
	// The torn record's LSN was lost with it; the next append reuses it,
	// which is correct — the lost record never took effect.
	if err := f.Append(testRec{Seq: 3, Name: "rec"}); err != nil {
		t.Fatal(err)
	}
	_, recs, err = f.Load()
	if err != nil || len(recs) != 3 {
		t.Fatalf("after re-append: %d recs, err %v", len(recs), err)
	}
}

func TestFileCorruptSnapshotSurfaced(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, f, recN(2))
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err = Open(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	state, recs, err := f.Load()
	if err == nil {
		t.Fatal("corrupt snapshot not surfaced")
	}
	if state != nil {
		t.Fatalf("state = %v, want nil", state)
	}
	if !reflect.DeepEqual(recs, recN(2)) {
		t.Fatalf("WAL-only replay lost records: %v", recs)
	}
}

func TestUnregisteredRecordRefused(t *testing.T) {
	type rogue struct{ X int }
	m := NewMem()
	if err := m.Append(rogue{1}); err == nil {
		t.Fatal("unregistered record accepted")
	}
	if err := m.Snapshot(rogue{1}); err == nil {
		t.Fatal("unregistered snapshot accepted")
	}
}

// A record type whose codec was never registered is refused at
// registration, not by the first Append that tries to journal it.
func TestRegisterRecordsRefusesTypeWithoutCodec(t *testing.T) {
	type noCodec struct{ N int }
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "no codec registered for store.noCodec") {
			t.Errorf("RegisterRecords(noCodec{}) panicked with %q, want a missing-codec refusal", msg)
		}
		if err := NewMem().Append(noCodec{1}); err == nil {
			t.Error("a refused record type was registered anyway")
		}
	}()
	RegisterRecords(noCodec{})
}

func TestMemFileParity(t *testing.T) {
	// The two implementations must produce byte-identical journals: the
	// simulator's recovery then exercises exactly what a real node writes.
	m := NewMem()
	appendAll(t, m, recN(3))

	dir := t.TempDir()
	f, err := Open(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, f, recN(3))
	f.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if joined := bytes.Join(m.log, nil); !bytes.Equal(raw, joined) {
		t.Fatalf("file journal (%d bytes) differs from memory journal (%d bytes)", len(raw), len(joined))
	}
}

// TestMemLoadEqualsStreamScan holds the chunked journal to the flat stream
// it replaced: over random sequences of appends (30 B to 300 KB records),
// short writes, appends after a tear and snapshots, Load must return
// exactly what scanning the chunks joined end to end returns — the same
// clean prefix, cut at the same torn frame — and Bytes the joined length.
// Along the way no chunk outgrows its bound and no written byte moves.
func TestMemLoadEqualsStreamScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMem()
		f := NewFaulty(m)
		var wantState any
		snapLSN := uint64(0)
		var firsts []*byte // each chunk's first byte, as first seen
		for op := 0; op < 120; op++ {
			// Log-uniform body sizes: as many 30 B markers as 300 KB images.
			size := int(30 * math.Pow(1e4, rng.Float64()))
			var rec any = testRec{Seq: op, Name: strings.Repeat("x", size)}
			if rng.Intn(2) == 0 {
				rec = testState{Vals: make([]float64, size/8), Note: "img"}
			}
			switch k := rng.Intn(20); {
			case k == 0:
				if err := m.Snapshot(rec); err != nil {
					t.Fatal(err)
				}
				wantState, snapLSN, firsts = rec, m.lsn, nil
			case k <= 2:
				f.Fail(FaultShortWrite)
				if err := f.Append(rec); err == nil {
					t.Fatal("short write reported success")
				}
				f.Heal()
			default:
				appendAll(t, m, []any{rec})
			}

			joined := bytes.Join(m.log, nil)
			bodies, _ := wal.Scan(joined)
			wantRecs, _ := decodeLog(bodies, snapLSN)
			state, recs, err := m.Load()
			if err != nil || !reflect.DeepEqual(state, wantState) {
				t.Fatalf("seed %d op %d: Load state mismatch (err %v)", seed, op, err)
			}
			if !reflect.DeepEqual(recs, wantRecs) {
				t.Fatalf("seed %d op %d: Load returned %d records, the joined stream holds %d", seed, op, len(recs), len(wantRecs))
			}
			if n, _ := m.size, len(m.snap); n != len(joined) {
				t.Fatalf("seed %d op %d: journal holds %d bytes, joined chunks are %d", seed, op, n, len(joined))
			}
			for i, chunk := range m.log {
				first := &chunk[:1][0] // a chunk a snapshot kept may be empty
				if i == len(firsts) {
					firsts = append(firsts, first)
				}
				if first != firsts[i] {
					t.Fatalf("seed %d op %d: chunk %d was moved", seed, op, i)
				}
				// Larger than the largest regular chunk: made for one frame,
				// which (whole, or torn by a byte) fills it.
				if cap(chunk) < memChunkMin || cap(chunk) > memChunkMax && len(chunk) < cap(chunk)-1 {
					t.Fatalf("seed %d op %d: chunk %d has %d of %d bytes used", seed, op, i, len(chunk), cap(chunk))
				}
			}
		}
	}
}

// TestOutgrown runs the same operations on a Mem, a Faulty over a Mem and a
// File, reopened from its directory before every question: an empty
// journal is never outgrown, a record outgrows no snapshot, and after a
// snapshot the journal outgrows it once it holds as many bytes.
func TestOutgrown(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }()
	m, fm := NewMem(), NewFaulty(NewMem())
	do := func(op func(Store) error) {
		t.Helper()
		for _, s := range []Store{m, fm, f} {
			if err := op(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(step string) bool {
		t.Helper()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if f, err = Open(dir, FileConfig{}); err != nil {
			t.Fatal(err)
		}
		log, snap := m.size, len(m.snap)
		want := log > 0 && log >= snap
		if m.Outgrown() != want || fm.Outgrown() != want || f.Outgrown() != want {
			t.Fatalf("%s: log %d B, snapshot %d B: Outgrown mem %v, faulty %v, file %v; want %v",
				step, log, snap, m.Outgrown(), fm.Outgrown(), f.Outgrown(), want)
		}
		return want
	}
	appendRec := func(s Store) error { return s.Append(testRec{Seq: 1, Name: "rec"}) }
	if check("empty") {
		t.Fatal("an empty store is outgrown")
	}
	do(appendRec)
	if !check("a record, no snapshot") {
		t.Fatal("a record does not outgrow the absent snapshot")
	}
	do(func(s Store) error { return s.Snapshot(testState{Vals: make([]float64, 32)}) })
	if check("just snapshotted") {
		t.Fatal("an empty journal outgrew its snapshot")
	}
	for i := 1; !check(fmt.Sprintf("%d records after the snapshot", i-1)); i++ {
		if i > 100 {
			t.Fatal("a hundred records never outgrew a 300-byte snapshot")
		}
		do(appendRec)
	}
}

// TestJournalStaysUnderTwiceItsState journals what a bigmodel-1k master
// does, a 261 KB model image and a round marker per round for forty
// rounds, snapshotting the image before an append whenever the journal
// has outgrown the last snapshot, as Engine.journal does: the store never
// holds more than two images plus markers.
func TestJournalStaysUnderTwiceItsState(t *testing.T) {
	image := testState{Vals: make([]float64, 261<<10/8)}
	marker := testRec{Seq: 1, Name: "round"}
	frame := func(rec any) int {
		m := NewMem()
		appendAll(t, m, []any{rec})
		n, _ := m.size, len(m.snap)
		return n
	}
	bound := 2*frame(image) + 2*frame(marker)
	m := NewMem()
	snapshots := 0
	for round := 1; round <= 40; round++ {
		for _, rec := range []any{image, marker} {
			if m.Outgrown() {
				if err := m.Snapshot(image); err != nil {
					t.Fatal(err)
				}
				snapshots++
			}
			appendAll(t, m, []any{rec})
			if log, snap := m.size, len(m.snap); log+snap > bound {
				t.Fatalf("round %d: journal %d B + snapshot %d B, over two images plus markers (%d B)", round, log, snap, bound)
			}
		}
	}
	if snapshots < 39 {
		t.Fatalf("%d snapshots over 40 images", snapshots)
	}
}

// BenchmarkMemSnapshot is the compaction Engine.journal runs once a
// journal outgrows its snapshot, at a marker-sized state and at
// bigmodel-1k's (one 261 KB master image).
func BenchmarkMemSnapshot(b *testing.B) {
	for _, bc := range []struct {
		name  string
		state any
	}{
		{"marker", testRec{Seq: 42, Name: "round"}},
		{"image261KB", testState{Vals: make([]float64, 261<<10/8)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMem()
			for b.Loop() {
				if err := m.Snapshot(bc.state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemAppend is the journal append at chaos-60's record size (a
// round marker) and at bigmodel-1k's (a 261 KB master image, forty to a
// journal as between two of its snapshots).
func BenchmarkMemAppend(b *testing.B) {
	for _, bc := range []struct {
		name   string
		rec    any
		perLog int
	}{
		{"marker", testRec{Seq: 42, Name: "round"}, 20000},
		{"image261KB", testState{Vals: make([]float64, 261<<10/8)}, 40},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMem()
			for i := 0; b.Loop(); i++ {
				if i%bc.perLog == 0 {
					m = NewMem()
				}
				if err := m.Append(bc.rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
