package chopim_test

import (
	"testing"

	"chopim"
	"chopim/internal/dram"
)

// TestPublicAPIQuickstart exercises the README quickstart end to end
// through the public facade.
func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := chopim.NewSystem(chopim.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.RT.NewVector(1<<18, chopim.Shared)
	if err != nil {
		t.Fatal(err)
	}
	y, err := sys.RT.NewVector(1<<18, chopim.Shared)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.RT.Copy(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Await(50_000_000, h); err != nil {
		t.Fatal(err)
	}
	if sys.HostIPC() <= 0 {
		t.Error("host made no progress")
	}
	if sys.NDABlocks() == 0 {
		t.Error("NDAs moved no data")
	}
}

// TestConfigKnobs verifies the configuration knobs exist and compose.
func TestConfigKnobs(t *testing.T) {
	cfg := chopim.DefaultConfig(-1)
	cfg.Partitioned = false
	cfg.NDA.Policy = chopim.Stochastic
	cfg.NDA.StochasticProb = 0.5
	cfg.MaxBlocksPerInstr = 32
	cfg.Geom.Ranks = 4
	sys, err := chopim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.RT.NewVector(1<<18, chopim.Private)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.RT.Nrm2(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Await(50_000_000, h); err != nil {
		t.Fatal(err)
	}
}

// TestGeometryPresets sanity-checks the exported constructors and the
// Table II timing every system is built with.
func TestGeometryPresets(t *testing.T) {
	g := chopim.DefaultGeometry()
	if dram.Channels != 2 || g.Ranks != 2 {
		t.Errorf("baseline geometry = %+v", g)
	}
	sys, err := chopim.NewSystem(chopim.DefaultConfig(-1))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mem.Geom != g {
		t.Errorf("system geometry = %+v, want %+v", sys.Mem.Geom, g)
	}
	if dram.CL != 16 || dram.FAW != 26 {
		t.Errorf("Table II timing: tCL = %d, tFAW = %d", dram.CL, dram.FAW)
	}
}
