package sim

import (
	"strings"
	"testing"

	"chopim/internal/dram"
	"chopim/internal/ndart"
)

func TestHostOnlyMixProgresses(t *testing.T) {
	cfg := Default(8) // lightest mix
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20000)
	s.BeginMeasurement()
	s.Run(30000)
	ipc := s.HostIPC()
	if ipc <= 0.1 {
		t.Errorf("mix8 aggregate IPC = %.3f, expected forward progress", ipc)
	}
	if s.Mem.Counts().RD == 0 {
		t.Error("no host reads reached DRAM")
	}
}

func TestMemoryIntensiveMixStressesDRAM(t *testing.T) {
	s, err := New(Default(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30000)
	if s.Mem.Counts().RD < 1000 {
		t.Errorf("mix1 issued only %d DRAM reads in 30k cycles", s.Mem.Counts().RD)
	}
	if s.Mem.Counts().ACT == 0 {
		t.Error("no activations issued")
	}
}

func TestNDACopyCompletes(t *testing.T) {
	cfg := Default(-1) // no host traffic
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 * 1024 // 256 KB vector
	x, err := s.RT.NewVector(n, ndart.Shared)
	if err != nil {
		t.Fatal(err)
	}
	y, err := s.RT.NewVector(n, ndart.Shared)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.RT.Copy(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(5_000_000, h); err != nil {
		t.Fatal(err)
	}
	blocks := int64(n * 4 / dram.BlockBytes)
	st := s.NDA.TotalStats()
	if st.BlocksRead != blocks {
		t.Errorf("COPY read %d blocks, want %d", st.BlocksRead, blocks)
	}
	if st.BlocksWritten != blocks {
		t.Errorf("COPY wrote %d blocks, want %d", st.BlocksWritten, blocks)
	}
}

func TestNDADotIsReadOnly(t *testing.T) {
	s, err := New(Default(-1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16 * 1024
	x, _ := s.RT.NewVector(n, ndart.Shared)
	y, _ := s.RT.NewVector(n, ndart.Shared)
	h, err := s.RT.Dot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(5_000_000, h); err != nil {
		t.Fatal(err)
	}
	st := s.NDA.TotalStats()
	if st.BlocksWritten != 0 {
		t.Errorf("DOT wrote %d blocks, want 0", st.BlocksWritten)
	}
	want := int64(2 * n * 4 / dram.BlockBytes)
	if st.BlocksRead != want {
		t.Errorf("DOT read %d blocks, want %d", st.BlocksRead, want)
	}
}

func TestConcurrentHostAndNDA(t *testing.T) {
	cfg := Default(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.RT.NewVector(256*1024, ndart.Shared)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.RT.Nrm2(x)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginMeasurement()
	if err := s.Await(10_000_000, h); err != nil {
		t.Fatal(err)
	}
	if s.HostIPC() <= 0 {
		t.Error("host made no progress during concurrent NDA execution")
	}
	if s.NDABlocks() == 0 {
		t.Error("NDA made no progress during concurrent host execution")
	}
}

func TestFSMReplicaStaysInSync(t *testing.T) {
	cfg := Default(1)
	cfg.NDA.VerifyFSM = true // panics on divergence
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.RT.NewVector(64*1024, ndart.Shared)
	y, _ := s.RT.NewVector(64*1024, ndart.Shared)
	h, err := s.RT.Copy(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(10_000_000, h); err != nil {
		t.Fatal(err)
	}
}

func TestGranularitySplitting(t *testing.T) {
	cfg := Default(-1)
	cfg.MaxBlocksPerInstr = 16
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.RT.NewVector(64*1024, ndart.Shared)
	h, err := s.RT.Nrm2(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(10_000_000, h); err != nil {
		t.Fatal(err)
	}
	// 64Ki floats = 4096 blocks over 4 ranks = 1024 blocks/rank =
	// 64 instructions per rank at N=16.
	if s.RT.Launches != 64*4 {
		t.Errorf("launches = %d, want 256", s.RT.Launches)
	}
}

func TestAsyncMacroOp(t *testing.T) {
	cfg := Default(-1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rank interleaving is coarse: the vector must span the rank-select
	// address bit to reach all four rank NDAs (1 MiB does).
	x, _ := s.RT.NewVector(256*1024, ndart.Shared)
	y, _ := s.RT.NewVector(256*1024, ndart.Shared)
	h, err := s.RT.MacroFor(8, func(i int) ndart.Spec {
		return ndart.AxpySpec(y, x)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(20_000_000, h); err != nil {
		t.Fatal(err)
	}
	// One launch packet per rank, not per iteration.
	if want := int64(4); s.RT.Launches != want {
		t.Errorf("macro op used %d launches, want %d", s.RT.Launches, want)
	}
}

// TestNewRejectsUnkeyableGeometry: the cache levels pack a block's tag
// into a 31-bit key, which covers every block of a memory of up to
// dram.MaxRanks ranks per channel (a compile-time assertion in cache).
// New refuses more ranks with an error naming Ranks, so a memory whose
// blocks have no key is never simulated with aliasing tags.
func TestNewRejectsUnkeyableGeometry(t *testing.T) {
	cfg := Default(0)
	cfg.Geom.Ranks = 2 * dram.MaxRanks
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Ranks") {
		t.Fatalf("New with %d ranks per channel = %v, want an error naming Ranks", cfg.Geom.Ranks, err)
	}
}
