// Package rng is the simulator's one random-number source: a concrete,
// counted generator that emits exactly math/rand's stream for a given
// seed, cheaply enough to sit on the per-instruction host path.
//
// math/rand's source is Knuth's additive lagged-Fibonacci generator
// (TAOCP Vol. 2 §3.2.2): every output obeys
//
//	o[n] = o[n-607] + o[n-273]  (mod 2^64)
//
// so once the first 607 outputs of rand.NewSource(seed) are known, the
// recurrence alone continues the stream exactly — no copy of math/rand's
// seed table is needed. Source keeps the last 607 outputs in a ring
// indexed by the draw count, so a draw is two loads, an add and a store,
// with no branch, that inlines at the call site. See DESIGN.md §2.12.
package rng

import (
	"math/rand"
	"sync"
)

const (
	lag   = 607          // long lag
	short = 273          // short lag
	ring  = 1024         // history ring: a power of two holding the last lag outputs
	mask  = 1<<63 - 1    // Int63 mask
	limit = 1<<63 - 1<<9 // Int63 values at or above this round Float64 to 1.0
)

// Source is a seeded, counted math/rand-equivalent generator: a plain
// value (a history ring plus the draw count) built with New, or embedded
// and seeded with Reset. The zero value is not usable.
type Source struct {
	n    uint64 // draws since seeding; o[n] is the next output
	seed int64
	hist [ring]uint64 // o[k] lives at hist[k%ring] for n-lag <= k < n
}

// seeders recycles math/rand sources across Resets, which read only their
// first lag outputs: a fresh source per seed would be 5 KiB of garbage.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0) }}

// New returns a source positioned at the start of seed's stream.
func New(seed int64) *Source {
	s := &Source{}
	s.Reset(seed)
	return s
}

// Reset reseeds the source in place and zeroes its draw count. The ring
// is primed with the lag outputs before the stream's start, o[-lag..-1],
// from which Uint64's recurrence emits o[0], o[1], ... unchanged.
func (s *Source) Reset(seed int64) {
	src := seeders.Get().(rand.Source64)
	defer seeders.Put(src)
	src.Seed(seed)
	h := &s.hist
	for k := 0; k < lag; k++ {
		h[k] = src.Uint64() // o[k], in its ring slot
	}
	// Solve backwards: o[k-lag] = o[k] - o[k-short]. Descending k reads
	// only slots of o[j], j <= k (seeded, or solved at an earlier step
	// when negative), and overwrites no seeded output a later step reads.
	for k := lag - 1; k >= 0; k-- {
		h[(k-lag+ring)%ring] = h[k] - h[(k-short+ring)%ring]
	}
	s.n, s.seed = 0, seed
}

// Uint64 returns the next 64-bit output, as rand.Source64.Uint64 does.
func (s *Source) Uint64() uint64 {
	n := s.n
	x := s.hist[(n-lag)%ring] + s.hist[(n-short)%ring]
	s.hist[n%ring] = x
	s.n = n + 1
	return x
}

// Int63 returns the next output with its top bit cleared, as
// rand.Rand.Int63 does. It advances the stream by one draw.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask) }

// Cut is an integer threshold standing for a probability: Below(CutOf(p))
// decides exactly as rand.Rand.Float64() < p does on the same stream.
type Cut uint64

// CutOf returns the smallest Int63 value x whose Float64 image
// float64(x)/2^63 is not below p — the number of draw values for which
// Float64() < p holds. Values at or above the resample limit never reach
// the comparison, so the result is capped there (p >= 1 keeps them all).
func CutOf(p float64) Cut {
	lo, hi := uint64(0), uint64(limit) // the answer lies in [lo, hi]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Cut(lo)
}

// Below reports whether the next Float64-equivalent draw falls below the
// probability c stands for. It consumes the same draws as
// rand.Rand.Float64, including the resample when a value would round to
// 1.0, so the stream stays aligned with math/rand.
func (s *Source) Below(c Cut) bool {
	for {
		if x := uint64(s.Int63()); x < limit {
			return x < uint64(c)
		}
	}
}

// Intn returns a value in [0, n) exactly as rand.Rand.Intn does for
// 0 < n <= 1<<31-1: a mask of the top 31 bits when n is a power of two,
// rejection sampling otherwise. It panics for n outside that range.
func (s *Source) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("rng: Intn argument out of range")
	}
	if n&(n-1) == 0 {
		return int(s.Int63()>>32) & (n - 1)
	}
	max := int64(1<<31 - 1 - (1<<31)%uint32(n))
	v := s.Int63() >> 32
	for v > max {
		v = s.Int63() >> 32
	}
	return int(v % int64(n))
}

// Draws returns how many outputs the source has produced since seeding.
func (s *Source) Draws() uint64 { return s.n }

// Rewind steps the source back k draws, to the state it had k draws
// earlier, by solving the recurrence backwards: undoing draw n restores
// o[n-lag] = o[n] - o[n-short] to its ring slot. It panics if the source
// has made fewer than k draws.
func (s *Source) Rewind(k uint64) {
	if k > s.n {
		panic("rng: Rewind past the stream's start")
	}
	for end := s.n - k; s.n > end; {
		s.n--
		n := s.n
		s.hist[(n-lag)%ring] = s.hist[n%ring] - s.hist[(n-short)%ring]
	}
}

// ReplayTo reseeds the source and advances it to exactly n draws, the
// state a live source reaches after any mix of n draws (every method
// consumes whole draws).
func (s *Source) ReplayTo(n uint64) {
	s.Reset(s.seed)
	for s.n < n {
		s.Uint64()
	}
}
