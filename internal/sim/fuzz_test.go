package sim

import (
	"testing"

	"chopim/internal/apps"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/workload"
)

// fuzzOps are the NDA kernels FuzzSystemEquivalence draws from; "" runs
// no NDA work.
var fuzzOps = []string{"", "dot", "copy", "nrm2", "axpy"}

// fuzzWorkload maps one fuzz input onto a bounded configuration: 1, 2,
// 4 or 8 ranks per channel, each NDA issue policy, partitioned or
// shared banks, every Table II mix or no host, one NDA kernel or none,
// and the seed. Invariants are armed.
func fuzzWorkload(ranks, policy uint8, partitioned bool, mix int8, op uint8, seed int64) ffWorkload {
	name := fuzzOps[int(op)%len(fuzzOps)]
	w := ffWorkload{
		name: "fuzz",
		cfg: func() Config {
			c := Default(int(uint8(mix))%(len(workload.Mixes)+1) - 1)
			c.Geom.Ranks = 1 << (ranks % 4)
			c.NDA.Policy = nda.Policy(int(policy) % 3)
			c.Partitioned = partitioned
			c.Seed = seed
			c.CheckInvariants = true
			return c
		},
	}
	if name != "" {
		w.app = func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, name, (64<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		}
	}
	return w
}

// FuzzSystemEquivalence drives the cycle-by-cycle Run path and the
// fast-forward RunFast path side by side over a bounded configuration
// space (fuzzWorkload) and requires every observable counter to agree
// at each of three short segment boundaries. It extends the fixed
// equivalence tests to configurations no figure pins.
func FuzzSystemEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(2), true, int8(2), uint8(1), int64(1))  // default geometry, mix 1 + DOT
	f.Add(uint8(1), uint8(0), false, int8(4), uint8(2), int64(7)) // shared, issue-if-idle, mix 3 + COPY
	f.Add(uint8(0), uint8(1), false, int8(0), uint8(3), int64(3)) // 1 rank, stochastic, NRM2 alone
	f.Add(uint8(2), uint8(2), true, int8(1), uint8(4), int64(5))  // 4 ranks, mix 0 + AXPY
	f.Add(uint8(0), uint8(0), true, int8(9), uint8(0), int64(2))  // 1 rank, mix 8, host only
	f.Fuzz(func(t *testing.T, ranks, policy uint8, partitioned bool, mix int8, op uint8, seed int64) {
		w := fuzzWorkload(ranks, policy, partitioned, mix, op, seed)
		if _, err := New(w.cfg()); err != nil {
			t.Fatalf("configuration refused: %v", err)
		}
		slow := drive(t, w, false, 3, 1_500)
		fast := drive(t, w, true, 3, 1_500)
		for i := range slow {
			if slow[i] != fast[i] {
				t.Fatalf("segment %d diverged:\n slow: %s\n fast: %s", i, slow[i], fast[i])
			}
		}
	})
}
