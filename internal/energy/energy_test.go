package energy

import (
	"math"
	"testing"

	"chopim/internal/dram"
)

func TestComputeComponents(t *testing.T) {
	c := Counts{
		Acts:       1000,
		HostBlocks: 10000,
		NDABlocks:  10000,
		FMAs:       1_000_000,
		BufAccess:  20000,
		PEs:        4,
		Seconds:    1e-3,
	}
	b := Compute(c)
	if got, want := b.ActivateJ, 1000*ActivateJ; math.Abs(got-want) > 1e-12 {
		t.Errorf("ActivateJ = %g, want %g", got, want)
	}
	bits := float64(dram.BlockBytes * 8)
	if got, want := b.HostIOJ, 10000*bits*HostBitJ; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("HostIOJ = %g, want %g", got, want)
	}
	if got, want := b.NDAIOJ, 10000*bits*PEBitJ; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("NDAIOJ = %g, want %g", got, want)
	}
	if got, want := b.LeakageJ, 2*BufferLeakW*4*1e-3; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("LeakageJ = %g, want %g", got, want)
	}
	sum := b.ActivateJ + b.HostIOJ + b.NDAIOJ + b.ComputeJ + b.BufferJ + b.LeakageJ
	if math.Abs(sum-b.TotalJ)/sum > 1e-12 {
		t.Errorf("TotalJ = %g, sum = %g", b.TotalJ, sum)
	}
	if got, want := b.AvgPowerW, b.TotalJ/1e-3; math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgPowerW = %g, want %g", got, want)
	}
}

// TestNDACheaperThanHost verifies the premise behind Takeaway 7: moving
// the same blocks over the NDA's internal path costs less energy than
// over the host channel.
func TestNDACheaperThanHost(t *testing.T) {
	host := Compute(Counts{HostBlocks: 1 << 20, Seconds: 1})
	ndas := Compute(Counts{NDABlocks: 1 << 20, Seconds: 1})
	if ndas.NDAIOJ >= host.HostIOJ {
		t.Errorf("NDA IO energy %g >= host IO energy %g", ndas.NDAIOJ, host.HostIOJ)
	}
}

func TestZeroSecondsNoPower(t *testing.T) {
	b := Compute(Counts{Acts: 10})
	if b.AvgPowerW != 0 {
		t.Error("power computed with zero duration")
	}
}

func TestFromCmdCounts(t *testing.T) {
	cc := dram.CmdCounts{ACT: 5, RD: 7, WR: 3, NDARD: 11, NDAWR: 2}
	c := FromCmdCounts(cc, 2.0, 4)
	if c.Acts != 5 || c.HostBlocks != 10 || c.NDABlocks != 13 || c.PEs != 4 || c.Seconds != 2.0 {
		t.Errorf("FromCmdCounts = %+v", c)
	}
	// A fresh device's counters give all-zero counts.
	m := dram.New(dram.DefaultGeometry(), dram.DDR42400())
	if got := FromCmdCounts(m.Counts(), 1.0, 4); got.Acts != 0 || got.HostBlocks != 0 || got.NDABlocks != 0 {
		t.Errorf("FromCmdCounts on fresh Mem = %+v", got)
	}
}
