package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// The radix queue pops what a sort on (at, seq) puts first, under the
// pushes a running simulation makes: keys due within a few link delays,
// bursts at one instant (numbered in either order), fresh keys at the last
// popped instant, gaps of several virtual seconds, a rewound timer below
// the last popped instant, and a window's rollback, which re-pushes what it
// popped lane by lane, below the base.
func TestQueuePopsInExactOrder(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q radixQueue
		var want []queued // the reference: every key not yet popped, sorted
		var seq uint64
		var now time.Duration // the last popped instant
		push := func(at time.Duration, s uint64) {
			x := queued{at: at, seq: s}
			q.push(x)
			want = slices.Insert(want, sort.Search(len(want), func(i int) bool { return x.before(want[i]) }), x)
		}
		fresh := func(at time.Duration) {
			seq++
			push(at, seq)
		}
		pops := 0
		pop := func() queued {
			t.Helper()
			if q.len() != len(want) {
				t.Fatalf("seed %d, pop %d: the queue holds %d keys, want %d", seed, pops, q.len(), len(want))
			}
			if p := q.peek(); p != want[0] {
				t.Fatalf("seed %d, pop %d: peek (%v, %d), want (%v, %d)", seed, pops, p.at, p.seq, want[0].at, want[0].seq)
			}
			got := q.pop()
			if got != want[0] {
				t.Fatalf("seed %d, pop %d: (%v, %d), want (%v, %d)", seed, pops, got.at, got.seq, want[0].at, want[0].seq)
			}
			want = want[1:]
			now = got.at
			pops++
			return got
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 30:
				fresh(now + time.Duration(rng.Int63n(int64(20*time.Millisecond))))
			case r < 32:
				at := now + time.Duration(rng.Intn(4))*5*time.Millisecond
				k := 1 + rng.Intn(80)
				if rng.Intn(2) == 0 {
					for ; k > 0; k-- {
						fresh(at)
					}
					break
				}
				for i := k; i > 0; i-- {
					push(at, seq+uint64(i))
				}
				seq += uint64(k)
			case r < 37:
				fresh(now)
			case r < 38:
				fresh(now + time.Duration(2+rng.Intn(8))*time.Second + time.Duration(rng.Int63n(int64(time.Second))))
			case r < 39:
				fresh(max(now-time.Duration(rng.Int63n(int64(50*time.Millisecond))), 0))
			case r < 42:
				clock := now
				var popped []queued
				for k := rng.Intn(64); k > 0 && len(want) > 0; k-- {
					popped = append(popped, pop())
				}
				lanes := 1 + rng.Intn(4)
				for l := 0; l < lanes; l++ {
					for i, x := range popped {
						if i%lanes == l {
							push(x.at, x.seq)
						}
					}
				}
				now = clock
			default:
				for k := 1 + rng.Intn(3); k > 0 && len(want) > 0; k-- {
					pop()
				}
			}
		}
		for len(want) > 0 {
			pop()
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: %d keys left in a drained queue", seed, q.len())
		}
	}
}

// BenchmarkQueue is one push and one pop at a steady number of live keys,
// each due 0–20 ms after the key popped before it: at fleet-50k's mean
// queue (250 keys), and at chaos-60's mean (1 200) and peak (2 600).
func BenchmarkQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
	}
	for _, live := range []int{250, 1200, 2600} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			var q radixQueue
			var seq uint64
			for ; seq < uint64(live); seq++ {
				q.push(queued{at: delays[seq%4096], seq: seq})
			}
			for b.Loop() {
				x := q.pop()
				seq++
				q.push(queued{at: x.at + delays[seq%4096], seq: seq})
			}
		})
	}
}
