package fl

import (
	"hash/fnv"
	"math/rand"

	"totoro/internal/ml"
)

// Deterministic per-client randomness.
//
// A single shared *rand.Rand consumed by many clients makes each client's
// random stream depend on how many draws every other client made before it
// — so reordering clients (or training them concurrently) changes every
// stream. Instead, each client derives a private rng from (seed, round,
// client tag) with a splitmix64-style mixer: the stream depends only on
// those three values, so serial and parallel execution, and any client
// visit order, produce identical local training.

// DeriveSeed mixes an application seed, a round number, and a client tag
// into an independent 63-bit stream seed (splitmix64 finalizer over the
// three words).
func DeriveSeed(seed int64, round int, tag uint64) int64 {
	z := uint64(seed)
	z = mix64(z + 0x9e3779b97f4a7c15)
	z = mix64(z + uint64(round)*0xbf58476d1ce4e5b9)
	z = mix64(z + tag*0x94d049bb133111eb)
	return int64(z >> 1) // non-negative, as rand.NewSource expects
}

// ClientRNG returns the private rng of one client in one round: the rng of
// the worker's workspace ws, reseeded to draw exactly what
// rand.New(rand.NewSource(DeriveSeed(seed, round, tag))) would. It is valid
// until the next ClientRNG on ws. Reseeding costs a few nanoseconds, where a
// new math/rand source costs 1 841 generator steps and 4.9 KB.
func ClientRNG(ws *ml.Workspace, seed int64, round int, tag uint64) *rand.Rand {
	if ws.Rand == nil && exactSource {
		ws.Rand = rand.New(new(lazySource))
	} else if ws.Rand == nil {
		ws.Rand = rand.New(rand.NewSource(0))
	}
	ws.Rand.Seed(DeriveSeed(seed, round, tag))
	return ws.Rand
}

// ClientTag maps a stable client identifier (e.g. a node address) to a
// derivation tag via FNV-1a.
func ClientTag(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// math/rand's source is an additive lagged Fibonacci generator over 607
// words: draw k (from 0) sets vec[feed] += vec[tap] with feed = (333−k) and
// tap = (606−k) mod 607, and returns the sum. Seeding fills every word from
// three steps of a Lehmer generator x ← x·48271 mod (2³¹−1) started at the
// seed — vec[i] = (x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ) ^ cooked[i] — although a
// client draws a few dozen numbers. lazySource computes a word the first
// time a draw touches it instead, jumping the Lehmer generator to step
// 21+3i by a table of powers, so every draw is math/rand's.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

var (
	// lehmer[i] is 48271^(21+3i) mod (2³¹−1).
	lehmer [rngLen]uint64
	// cooked is math/rand's table of word masks, recovered by initSource.
	cooked [rngLen]int64
	// exactSource reports whether lazySource draws math/rand's numbers: it
	// is checked against rand.NewSource at init, as ml's expExact is against
	// math.Exp, and ClientRNG falls back to rand.NewSource if any draw differs.
	exactSource = initSource()
)

// lazySource is math/rand's source with each word computed on first use.
type lazySource struct {
	x0        uint64 // the seed, reduced as math/rand reduces it
	gen       uint64 // the seedings so far; vec[i] holds a word of this one iff stamp[i] == gen
	tap, feed int
	stamp     [rngLen]uint64
	vec       [rngLen]int64
}

func (s *lazySource) Seed(seed int64) {
	if seed %= int32max; seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.gen, s.tap, s.feed = uint64(seed), s.gen+1, 0, rngLen-rngTap
}

func (s *lazySource) Uint64() uint64 {
	s.tap = (s.tap + rngLen - 1) % rngLen
	s.feed = (s.feed + rngLen - 1) % rngLen
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *lazySource) word(i int) int64 {
	if s.stamp[i] != s.gen {
		s.stamp[i], s.vec[i] = s.gen, seedWord(s.x0, i)^cooked[i]
	}
	return s.vec[i]
}

// seedWord is word i of a seeding at x0 before its mask.
func seedWord(x0 uint64, i int) int64 {
	x1 := x0 * lehmer[i] % int32max
	x2 := x1 * 48271 % int32max
	x3 := x2 * 48271 % int32max
	return int64(x1<<40 ^ x2<<20 ^ x3)
}

// initSource fills the tables and reports whether lazySource then matches
// rand.NewSource over seeds that take each branch of the reduction, past
// the first rewrite of every word, on one source reseeded each time.
func initSource() bool {
	p := uint64(1)
	for k := 1; k <= 21+3*(rngLen-1); k++ {
		p = p * 48271 % int32max
		if k >= 21 && (k-21)%3 == 0 {
			lehmer[(k-21)/3] = p
		}
	}
	// Seed 1's outputs out[k] give its words: for k ≥ 273 the tap word was
	// written by draw k−273, for k < 273 it is a word recovered below.
	ref := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(333-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[333-k] = out[k] - vec[606-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ seedWord(1, i)
	}
	var s lazySource
	for _, seed := range []int64{0, 7, -7, int32max, -3 * int32max, 1<<63 - 1, -1 << 63} {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for range 2 * rngLen {
			if s.Uint64() != ref.Uint64() {
				return false
			}
		}
	}
	return true
}
