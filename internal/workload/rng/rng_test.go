package rng

import (
	"math/rand"
	"testing"
)

// mathRandSource exposes a Source to math/rand, so rand.Rand's own
// Float64 can judge a stream this package steers.
type mathRandSource struct{ s *Source }

func (m mathRandSource) Int63() int64   { return m.s.Int63() }
func (m mathRandSource) Uint64() uint64 { return m.s.Uint64() }
func (m mathRandSource) Seed(int64)     { panic("unused") }

// forceNext rigs the ring so the next output is exactly x.
func (s *Source) forceNext(x uint64) {
	s.hist[(s.n-lag)%ring] = x
	s.hist[(s.n-short)%ring] = 0
}

// TestBelowResamples drives the once-in-2^54 case: a draw so close to
// 1<<63 that Float64 rounds it to 1.0 and math/rand draws again. Below
// must resample too, consuming the same two draws.
func TestBelowResamples(t *testing.T) {
	for _, x := range []uint64{limit, limit + 1, 1<<63 - 1, 1<<64 - 1} {
		for _, p := range []float64{0.5, 1} {
			s := New(9)
			s.forceNext(x)
			ref := *s
			want := rand.New(mathRandSource{&ref}).Float64() < p
			if got := s.Below(CutOf(p)); got != want {
				t.Errorf("x=%#x p=%v: Below %v, Float64()<p %v", x, p, got, want)
			}
			if s.Draws() != 2 || ref.Draws() != 2 {
				t.Errorf("x=%#x: Below made %d draws, Float64 %d; want 2 (one resample)", x, s.Draws(), ref.Draws())
			}
		}
	}
	// One below the limit is an ordinary draw.
	s := New(9)
	s.forceNext(limit - 1)
	if s.Below(CutOf(1)); s.Draws() != 1 {
		t.Errorf("x=limit-1 resampled")
	}
}
