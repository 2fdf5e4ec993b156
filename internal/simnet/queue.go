package simnet

import (
	"math/bits"
	"slices"
	"sort"
	"time"
)

// queued is one queue slot: the (at, seq) key by value, so ordering never
// dereferences an event.
type queued struct {
	at  time.Duration
	seq uint64
	ev  *event
}

func (a queued) before(b queued) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// radixQueue is a min-queue on (at, seq): a radix heap on at, plus a run
// that keeps keys at or below the base in exact (at, seq) order. seq is
// unique, so the key is a total order and what pop returns depends on the
// keys alone, never on the queue's shape (DESIGN.md §4.8 rule 2).
//
// A key above base waits in bucket i, where i+1 is the length of the
// highest bit in which its at differs from base; so every key of a bucket
// precedes every key of the buckets above it. A key at or below base — one
// pushed at the base instant, or below it as a window's rollback or a
// rewound timer pushes it — goes into run, in place, and pop drains run
// first. When run is empty, refill sorts the first keys of the lowest
// bucket into it and moves base up to the last of them.
type radixQueue struct {
	base    time.Duration
	n       int
	run     []queued // keys ≤ base in (at, seq) order, from head on
	head    int
	used    uint64 // bit i is set iff buckets[i] is not empty
	buckets [64][]queued
	spare   [][]queued // arrays no bucket holds, empty
}

// wholeBucket is the most keys a refill moves into the run in one piece.
const wholeBucket = 16

func (q *radixQueue) len() int { return q.n }

//vet:noalloc amortized
func (q *radixQueue) push(x queued) {
	q.n++
	switch k := len(q.run); {
	case x.at > q.base:
		q.put(bits.Len64(uint64(x.at^q.base))-1, x)
	case k == q.head || q.run[k-1].before(x):
		q.run = append(q.run, x) // the common case: a fresh seq at the base
	default:
		i := q.head + sort.Search(k-q.head, func(i int) bool { return x.before(q.run[q.head+i]) })
		q.run = slices.Insert(q.run, i, x)
	}
}

// peek returns the smallest key without removing it. The queue must not be
// empty.
//
//vet:noalloc
func (q *radixQueue) peek() queued {
	if q.head == len(q.run) {
		q.refill()
	}
	return q.run[q.head]
}

// pop removes and returns the smallest key. The queue must not be empty.
//
//vet:noalloc
func (q *radixQueue) pop() queued {
	x := q.peek()
	q.run[q.head] = queued{}
	q.n--
	if q.head++; q.head == len(q.run) {
		q.run, q.head = q.run[:0], 0
	}
	return x
}

// put appends x to bucket i.
//
//vet:noalloc
func (q *radixQueue) put(i int, x queued) {
	b := q.buckets[i]
	if len(b) == cap(b) {
		b = q.grow(b)
	}
	b = append(b, x)
	q.buckets[i] = b
	q.used |= 1 << i
}

// grow returns a full bucket's keys in a larger array: the smallest spare
// one that is larger, else a new one of at least 64 keys. The bucket's own
// array becomes a spare, as an emptied bucket's does. So arrays keep their
// capacity whichever bucket they serve next, and a queue that has seen its
// peak allocates nothing.
//
//vet:noalloc amortized
func (q *radixQueue) grow(b []queued) []queued {
	k := -1
	for i, s := range q.spare {
		if cap(s) > len(b) && (k < 0 || cap(s) < cap(q.spare[k])) {
			k = i
		}
	}
	var s []queued
	if k >= 0 {
		s = q.spare[k]
		q.spare = slices.Delete(q.spare, k, k+1)
	} else {
		s = make([]queued, 0, max(2*len(b), 64))
	}
	s = append(s, b...)
	if cap(b) > 0 {
		clear(b)
		q.spare = append(q.spare, b[:0])
	}
	return s
}

// refill moves the lowest bucket's first keys into the empty run, sorted,
// and makes the last one's at the base. Every key of the lowest bucket
// precedes every key of the others, so a small bucket moves whole; a larger
// one moves its smallest instant, and the rest fall into lower buckets.
//
//vet:noalloc
func (q *radixQueue) refill() {
	i := bits.TrailingZeros64(q.used)
	b := q.buckets[i]
	if len(b) <= wholeBucket {
		q.run = append(q.run, b...)
	} else {
		base := b[0].at
		for _, x := range b[1:] {
			base = min(base, x.at)
		}
		for _, x := range b {
			if x.at == base {
				q.run = append(q.run, x)
			} else {
				q.put(bits.Len64(uint64(x.at^base))-1, x)
			}
		}
	}
	clear(b)
	q.spare = append(q.spare, b[:0])
	q.buckets[i] = nil
	q.used &^= 1 << i
	// An insertion sort: linear on keys pushed in order, as the keys of one
	// instant are.
	r := q.run
	for k := 1; k < len(r); k++ {
		x, j := r[k], k
		for ; j > 0 && x.before(r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = x
	}
	q.base = r[len(r)-1].at
}
