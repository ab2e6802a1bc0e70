package sim

import (
	"fmt"
	"testing"

	"chopim/internal/nda"
	"chopim/internal/ndart"
)

// TestConfigurationMatrix exercises every policy x partitioning x
// geometry combination end to end with concurrent host and NDA traffic,
// with FSM replica verification armed. Any illegal DRAM command, replica
// divergence, or deadlock fails the test.
func TestConfigurationMatrix(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		for _, part := range []bool{false, true} {
			for _, pol := range []nda.Policy{nda.IssueIfIdle, nda.Stochastic, nda.NextRank} {
				name := fmt.Sprintf("ranks=%d/part=%v/%v", ranks, part, pol)
				t.Run(name, func(t *testing.T) {
					cfg := Default(8) // light mix keeps runtime short
					cfg.Geom.Ranks = ranks
					cfg.Partitioned = part
					cfg.NDA.Policy = pol
					cfg.NDA.StochasticProb = 0.25
					cfg.NDA.VerifyFSM = true
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					x, err := s.RT.NewVector(64*1024, ndart.Private)
					if err != nil {
						t.Fatal(err)
					}
					y, err := s.RT.NewVector(64*1024, ndart.Private)
					if err != nil {
						t.Fatal(err)
					}
					h, err := s.RT.Copy(y, x)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Await(20_000_000, h); err != nil {
						t.Fatal(err)
					}
					if s.NDABlocks() == 0 {
						t.Error("no NDA progress")
					}
					if s.Mem.Counts().RD == 0 {
						t.Error("no host progress")
					}
				})
			}
		}
	}
}

// TestDeterminism: identical configurations produce identical simulation
// outcomes (the replicated-FSM argument requires full determinism).
func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, float64) {
		cfg := Default(7)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := s.RT.NewVector(128*1024, ndart.Shared)
		y, _ := s.RT.NewVector(128*1024, ndart.Shared)
		h, err := s.RT.Copy(y, x)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Await(20_000_000, h); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.NDABlocks(), s.HostIPC()
	}
	c1, b1, i1 := run()
	c2, b2, i2 := run()
	if c1 != c2 || b1 != b2 || i1 != i2 {
		t.Errorf("nondeterministic: (%d,%d,%f) vs (%d,%d,%f)", c1, b1, i1, c2, b2, i2)
	}
}
