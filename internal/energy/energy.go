// Package energy estimates memory-system power and energy from event
// counts using the paper's Table II constants (originally derived from
// CACTI, CACTI-3DD, and CACTI-IO).
package energy

import "chopim/internal/dram"

// Constants from Table II.
const (
	ActivateJ     = 1.0e-9   // per ACT
	PEBitJ        = 11.3e-12 // PE (internal) read/write, per bit
	HostBitJ      = 25.7e-12 // host (channel) read/write, per bit
	FMAJ          = 20e-12   // per PE FMA operation
	BufferAccessJ = 20e-12   // per PE buffer access
	BufferLeakW   = 11e-3    // per PE buffer (scratchpad identical)
)

// Counts are the event totals of one simulation window.
type Counts struct {
	Acts       int64
	HostBlocks int64 // host column commands (64B each)
	NDABlocks  int64 // NDA column commands (64B each)
	FMAs       int64 // PE fused multiply-adds
	BufAccess  int64 // PE buffer accesses
	PEs        int   // rank NDAs with buffers powered
	Seconds    float64
}

// FromCmdCounts builds Counts from an explicit command-counter snapshot
// (useful for windows measured as deltas of dram.Mem.Counts, and for
// tests).
func FromCmdCounts(c dram.CmdCounts, seconds float64, pes int) Counts {
	return Counts{
		Acts:       c.ACT,
		HostBlocks: c.RD + c.WR,
		NDABlocks:  c.NDARD + c.NDAWR,
		PEs:        pes,
		Seconds:    seconds,
	}
}

// Breakdown reports energy per component in joules plus average power.
type Breakdown struct {
	ActivateJ float64
	HostIOJ   float64
	NDAIOJ    float64
	ComputeJ  float64
	BufferJ   float64
	LeakageJ  float64
	TotalJ    float64
	AvgPowerW float64
}

// Compute evaluates the model.
func Compute(c Counts) Breakdown {
	const bitsPerBlock = dram.BlockBytes * 8
	b := Breakdown{
		ActivateJ: float64(c.Acts) * ActivateJ,
		HostIOJ:   float64(c.HostBlocks) * bitsPerBlock * HostBitJ,
		NDAIOJ:    float64(c.NDABlocks) * bitsPerBlock * PEBitJ,
		ComputeJ:  float64(c.FMAs) * FMAJ,
		BufferJ:   float64(c.BufAccess) * BufferAccessJ,
	}
	// Buffer + scratchpad leakage per PE.
	b.LeakageJ = 2 * BufferLeakW * float64(c.PEs) * c.Seconds
	b.TotalJ = b.ActivateJ + b.HostIOJ + b.NDAIOJ + b.ComputeJ + b.BufferJ + b.LeakageJ
	if c.Seconds > 0 {
		b.AvgPowerW = b.TotalJ / c.Seconds
	}
	return b
}
