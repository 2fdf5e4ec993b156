package experiments

import (
	"os"
	"sync"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/store"
	"totoro/internal/wire/codec"
)

// This file measures the durable-state layer (internal/store): append
// latency/throughput of the file-backed WAL under both sync modes and on
// both dominant record shapes (the tiny per-round marker the engine
// journals before every round, and a model-sized state image), plus the
// cold-recovery cost of rebooting from snapshot + journal tail.
// cmd/totoro-bench -exp wal prints the rows and emits BENCH_wal.json.

// walBenchRound mirrors the engine's per-round journal record: the
// smallest, most frequent append on the hot path.
type walBenchRound struct {
	App   ids.ID
	Round int
}

// walBenchImage mirrors a snapshot-sized record: a dense model image.
type walBenchImage struct {
	Params []float64
}

// Bench-local codec tags. The bench binary links the engine (tags 64–76);
// these stay clear of that block and of the test-only tags (200, 240+).
const (
	tagWalBenchRound = 120
	tagWalBenchImage = 121
)

var walBenchRegister sync.Once

func walBenchInit() {
	walBenchRegister.Do(func() {
		codec.RegisterCodec(tagWalBenchRound, walBenchRound{},
			func(e *codec.Enc, v any) {
				r := v.(walBenchRound)
				e.ID(r.App)
				e.Varint(int64(r.Round))
			},
			func(d *codec.Dec) any {
				return walBenchRound{App: d.ID(), Round: int(d.Varint())}
			})
		codec.RegisterCodec(tagWalBenchImage, walBenchImage{},
			func(e *codec.Enc, v any) { e.Float64s(v.(walBenchImage).Params) },
			func(d *codec.Dec) any { return walBenchImage{Params: d.Float64s()} })
		store.RegisterRecords(walBenchRound{}, walBenchImage{})
	})
}

func walBenchParams(n int) []float64 {
	params := make([]float64, n)
	for i := range params {
		params[i] = float64(i%89) * 0.017
	}
	return params
}

// WALBenchRow is one append measurement on the file-backed store.
type WALBenchRow struct {
	Op          string  // "append-round", "append-image10k"
	Sync        bool    // fsync per append
	NsPerOp     float64 //
	AppendsPerS float64
	MBPerSec    float64 // payload throughput (image rows)
	BytesPerOp  int64   // heap bytes allocated per op
	AllocsPerOp int64
}

func walAppendBench(syncEach bool, rec any, payload int) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "totoro-walbench-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.FileConfig{Sync: syncEach})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ReportAllocs()
		b.SetBytes(int64(payload))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// WALAppendBench measures WAL append cost for the round-marker record and
// a 10k-parameter model image, with and without per-append fsync.
func WALAppendBench(o Options) []WALBenchRow {
	walBenchInit()
	round := walBenchRound{App: ids.ID{Hi: 1, Lo: 2}, Round: 42}
	nImage := 10000
	if o.Short {
		nImage = 2000
	}
	image := walBenchImage{Params: walBenchParams(nImage)}
	imgPayload := 8 * nImage

	row := func(op string, syncEach bool, rec any, payload int) WALBenchRow {
		r := testing.Benchmark(walAppendBench(syncEach, rec, payload))
		out := WALBenchRow{
			Op: op, Sync: syncEach,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if r.NsPerOp() > 0 {
			out.AppendsPerS = 1e9 / float64(r.NsPerOp())
		}
		if r.Bytes > 0 && r.T > 0 {
			out.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		return out
	}
	return []WALBenchRow{
		row("append-round", false, round, 16),
		row("append-image10k", false, image, imgPayload),
		row("append-round", true, round, 16),
		row("append-image10k", true, image, imgPayload),
	}
}

// WALRecoveryRow is one cold-recovery measurement: reopen a data
// directory holding one model snapshot plus a journal tail and replay it.
type WALRecoveryRow struct {
	TailRecords int   // records appended after the snapshot
	Replayed    int   // records the reopened store handed back
	WALBytes    int64 // journal size on disk at reopen
	RecoveryMs  float64
}

// WALColdRecovery measures boot-time recovery cost as a function of
// journal-tail length: open + snapshot read + full tail replay, the exact
// work totoro-node does before rejoining the overlay.
func WALColdRecovery(o Options) ([]WALRecoveryRow, error) {
	walBenchInit()
	tails := []int{100, 1000, 10000}
	if o.Short {
		tails = []int{100, 1000}
	}
	image := walBenchImage{Params: walBenchParams(10000)}
	var out []WALRecoveryRow
	for _, n := range tails {
		dir, err := os.MkdirTemp("", "totoro-walrecover-*")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir, store.FileConfig{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := st.Snapshot(image); err != nil {
			st.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := st.Append(walBenchRound{App: ids.ID{Hi: 1, Lo: 2}, Round: i}); err != nil {
				st.Close()
				os.RemoveAll(dir)
				return nil, err
			}
		}
		if err := st.Close(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}

		start := time.Now()
		st2, err := store.Open(dir, store.FileConfig{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		_, recs, err := st2.Load()
		elapsed := time.Since(start)
		walBytes := st2.WALSize()
		st2.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, WALRecoveryRow{
			TailRecords: n,
			Replayed:    len(recs),
			WALBytes:    walBytes,
			RecoveryMs:  float64(elapsed.Nanoseconds()) / 1e6,
		})
	}
	return out, nil
}

// WALReport bundles the durability measurements for BENCH_wal.json.
type WALReport struct {
	Append   []WALBenchRow
	Recovery []WALRecoveryRow
}
