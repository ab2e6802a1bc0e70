package rng_test

import (
	"math/rand"
	"testing"

	"chopim/internal/nda"
	"chopim/internal/workload"
	"chopim/internal/workload/rng"
)

// Stream pins: every Source method must emit exactly what the math/rand
// recipe it replaces emits, draw for draw.

var pinSeeds = []int64{1, 2, -7, 1 << 40}

const pinDraws = 1_000_000

func pinDrawCount(t *testing.T) int {
	if testing.Short() {
		return pinDraws / 10
	}
	return pinDraws
}

func TestUint64MatchesMathRand(t *testing.T) {
	n := pinDrawCount(t)
	for _, seed := range pinSeeds {
		ref, s := rand.New(rand.NewSource(seed)), rng.New(seed)
		for i := 0; i < n; i++ {
			if want, got := ref.Uint64(), s.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, got, want)
			}
		}
		if s.Draws() != uint64(n) {
			t.Fatalf("seed %d: Draws %d after %d draws", seed, s.Draws(), n)
		}
	}
}

func TestInt63MatchesMathRand(t *testing.T) {
	n := pinDrawCount(t)
	for _, seed := range pinSeeds {
		ref, s := rand.New(rand.NewSource(seed)), rng.New(seed)
		for i := 0; i < n; i++ {
			if want, got := ref.Int63(), s.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, got, want)
			}
		}
	}
}

// fractions lists every probability the simulator thresholds a draw
// against: each profile's fractions, the default dependency fraction,
// and the NDA stochastic write probability, plus the endpoints.
func fractions() []float64 {
	ps := []float64{0, 1, 0.35, nda.DefaultConfig().StochasticProb}
	profs := []workload.Profile{workload.ComputeHeavy(), workload.StallHeavy()}
	for _, p := range workload.Profiles {
		profs = append(profs, p)
	}
	for _, p := range profs {
		ps = append(ps, p.MemRatio, p.WriteFrac, p.StreamFrac)
		if p.DepFrac > 0 {
			ps = append(ps, p.DepFrac)
		}
	}
	return ps
}

func TestBelowMatchesFloat64(t *testing.T) {
	ps := fractions()
	cuts := make([]rng.Cut, len(ps))
	for i, p := range ps {
		cuts[i] = rng.CutOf(p)
	}
	n := pinDrawCount(t)
	for _, seed := range pinSeeds {
		ref, s := rand.New(rand.NewSource(seed)), rng.New(seed)
		for i := 0; i < n; i++ {
			k := i % len(ps)
			if want, got := ref.Float64() < ps[k], s.Below(cuts[k]); got != want {
				t.Fatalf("seed %d draw %d p=%v: Below %v, Float64()<p %v", seed, i, ps[k], got, want)
			}
		}
	}
}

func TestIntnMatchesMathRand(t *testing.T) {
	ns := []int{2, 3, 6, 8}
	n := pinDrawCount(t)
	for _, seed := range pinSeeds {
		ref, s := rand.New(rand.NewSource(seed)), rng.New(seed)
		for i := 0; i < n; i++ {
			m := ns[i%len(ns)]
			if want, got := ref.Intn(m), s.Intn(m); got != want {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, m, got, want)
			}
		}
		// Rejection sampling may consume extra draws; the streams must
		// still be aligned afterwards.
		if ref.Uint64() != s.Uint64() {
			t.Fatalf("seed %d: streams misaligned after Intn", seed)
		}
	}
}

// TestCutOfBoundary checks CutOf on both sides of the cut: the largest
// value below it maps under p, the cut itself does not.
func TestCutOfBoundary(t *testing.T) {
	const limit = 1<<63 - 1<<9
	img := func(x uint64) float64 { return float64(int64(x)) / (1 << 63) }
	for _, p := range fractions() {
		c := uint64(rng.CutOf(p))
		if c > 0 && !(img(c-1) < p) {
			t.Errorf("p=%v: value %d below the cut %d maps to %v, not under p", p, c-1, c, img(c-1))
		}
		if c < limit && img(c) < p {
			t.Errorf("p=%v: cut %d maps to %v, under p", p, c, img(c))
		}
	}
	if c := rng.CutOf(0); c != 0 {
		t.Errorf("CutOf(0) = %d, want 0", c)
	}
	if c := rng.CutOf(1); c != limit {
		t.Errorf("CutOf(1) = %d, want %d (every value that is not resampled)", c, uint64(limit))
	}
}

// TestReplayToMatchesLive checks that a replayed source continues
// exactly where a live one that made the same number of draws does,
// including across ring wrap-arounds.
func TestReplayToMatchesLive(t *testing.T) {
	for _, seed := range pinSeeds {
		for _, n := range []uint64{0, 1, 272, 273, 606, 607, 608, 1023, 1024, 1025, 100_003} {
			live := rng.New(seed)
			for i := uint64(0); i < n; i++ {
				if i%3 == 0 {
					live.Int63()
				} else {
					live.Uint64()
				}
			}
			replayed := rng.New(seed)
			replayed.Uint64() // replay must discard prior progress too
			replayed.ReplayTo(n)
			if replayed.Draws() != n {
				t.Fatalf("seed %d: ReplayTo(%d) left Draws %d", seed, n, replayed.Draws())
			}
			for i := 0; i < 2*1024; i++ {
				if a, b := live.Uint64(), replayed.Uint64(); a != b {
					t.Fatalf("seed %d: replay to %d diverges %d draws later", seed, n, i)
				}
			}
		}
	}
}

// TestRewindMatchesReplay checks that a source rewound by k draws
// continues exactly as one replayed to the same count, for rewinds
// inside the ring's slack, across whole ring wrap-arounds, and back to
// the stream's start.
func TestRewindMatchesReplay(t *testing.T) {
	for _, seed := range pinSeeds {
		for _, c := range []struct{ n, k uint64 }{
			{1, 1}, {10, 3}, {2_000, 416}, {2_000, 417}, {2_000, 418}, {5_000, 4_000}, {100_003, 25_000}, {3_000, 3_000},
		} {
			s := rng.New(seed)
			for i := uint64(0); i < c.n; i++ {
				s.Uint64()
			}
			s.Rewind(c.k)
			ref := rng.New(seed)
			ref.ReplayTo(c.n - c.k)
			if s.Draws() != ref.Draws() {
				t.Fatalf("seed %d: Rewind(%d) from %d left Draws %d, want %d", seed, c.k, c.n, s.Draws(), ref.Draws())
			}
			for i := 0; i < 2*1024; i++ {
				if a, b := s.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("seed %d: rewind %d from %d diverges %d draws later", seed, c.k, c.n, i)
				}
			}
		}
	}
}
