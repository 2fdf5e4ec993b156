package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func frames(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = append(out, AppendRecord(nil, b)...)
	}
	return out
}

func TestScanRoundTrip(t *testing.T) {
	bodies := [][]byte{[]byte("alpha"), {}, []byte("a much longer record body with some structure 0123456789")}
	log := frames(bodies...)
	got, valid := Scan(log)
	if valid != len(log) {
		t.Fatalf("valid = %d, want %d", valid, len(log))
	}
	if len(got) != len(bodies) {
		t.Fatalf("got %d records, want %d", len(got), len(bodies))
	}
	for i := range bodies {
		if !bytes.Equal(got[i], bodies[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], bodies[i])
		}
	}
}

func TestScanTornTail(t *testing.T) {
	full := frames([]byte("one"), []byte("two"), []byte("three"))
	oneTwo := frames([]byte("one"), []byte("two"))
	// Cutting anywhere inside the third record must recover exactly the
	// first two, with valid pointing at the boundary.
	for cut := len(oneTwo) + 1; cut < len(full); cut++ {
		got, valid := Scan(full[:cut])
		if len(got) != 2 || valid != len(oneTwo) {
			t.Fatalf("cut %d: got %d records, valid %d (want 2, %d)", cut, len(got), valid, len(oneTwo))
		}
	}
}

func TestScanBitFlip(t *testing.T) {
	full := frames([]byte("first"), []byte("second"))
	first := frames([]byte("first"))
	// Flipping any bit in the second record must leave the first intact
	// and never return a corrupted body.
	for i := len(first); i < len(full); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[i] ^= 1 << bit
			got, valid := Scan(mut)
			if len(got) < 1 || !bytes.Equal(got[0], []byte("first")) {
				t.Fatalf("flip %d/%d: lost first record", i, bit)
			}
			if len(got) == 2 && !bytes.Equal(got[1], []byte("second")) {
				t.Fatalf("flip %d/%d: returned corrupted body %q", i, bit, got[1])
			}
			if valid > len(mut) {
				t.Fatalf("flip %d/%d: valid %d beyond input %d", i, bit, valid, len(mut))
			}
		}
	}
}

func TestScanOversizeClaim(t *testing.T) {
	log := frames([]byte("keep"))
	// A length prefix claiming more than MaxRecordBytes ends the scan.
	bad := append(append([]byte(nil), log...), 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	got, valid := Scan(bad)
	if len(got) != 1 || valid != len(log) {
		t.Fatalf("got %d records, valid %d; want 1, %d", len(got), valid, len(log))
	}
}

func TestWriterRecoversTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, got, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log returned %d records", len(got))
	}
	for _, b := range []string{"r1", "r2", "r3"} {
		if err := w.Append([]byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record, as a crash during the last write would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	w, got, err = Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "r1" || string(got[1]) != "r2" {
		t.Fatalf("recovered %d records: %q", len(got), got)
	}
	// Appending after recovery lands on a clean boundary.
	if err := w.Append([]byte("r3b")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	bodies, valid := Scan(raw)
	if valid != len(raw) || len(bodies) != 3 || string(bodies[2]) != "r3b" {
		t.Fatalf("after recovery+append: %d records, valid %d/%d", len(bodies), valid, len(raw))
	}
}

func TestWriterTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatalf("size after truncate = %d", w.Size())
	}
	if err := w.Append([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	bodies, _ := Scan(raw)
	if len(bodies) != 1 || string(bodies[0]) != "y" {
		t.Fatalf("after truncate: %q", bodies)
	}
}

func TestFrameSize(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 1 << 20} {
		body := make([]byte, n)
		if got, want := FrameSize(n), len(AppendRecord(nil, body)); got != want {
			t.Fatalf("FrameSize(%d) = %d, want %d", n, got, want)
		}
	}
}
