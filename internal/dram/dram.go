// Package dram implements a cycle-level DDR4 memory device model: banks,
// bank groups, ranks, and channels with the full command timing set used by
// the Chopim paper (Table II), including bank-group aware tCCD/tRRD/tWTR,
// the tFAW activation window, and read/write bus-turnaround penalties.
//
// The model distinguishes external (host) column accesses, which occupy the
// channel data bus, from internal (NDA) column accesses, which use the
// rank's internal data path but share all bank- and rank-level timing state
// with host accesses. That shared state is exactly the contention that
// Chopim's mechanisms manage.
//
// All times are in DRAM bus-clock cycles (1.2 GHz for DDR4-2400).
package dram

import (
	"errors"
	"fmt"
	"math/bits"
)

// Command is a DRAM command type.
type Command int

// DRAM commands. Auto-precharge variants are not modeled because the
// simulated controllers use an open-page policy with explicit precharge.
// Refresh is not modeled either: the paper's Table II configuration runs
// with refresh off.
const (
	CmdACT Command = iota
	CmdPRE
	CmdRD
	CmdWR
)

// String returns the conventional mnemonic for the command.
func (c Command) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	}
	return fmt.Sprintf("Command(%d)", int(c))
}

// Addr identifies one column-granularity location in the memory system.
// Col is in units of 64-byte blocks (one burst across the rank's chips).
type Addr struct {
	Channel   int
	Rank      int
	BankGroup int
	Bank      int // bank index within the bank group
	Row       int
	Col       int
}

// GlobalBank returns the rank-local flat bank index.
func (a Addr) GlobalBank(g Geometry) int { return a.BankGroup*g.BanksPerGroup + a.Bank }

// Geometry describes the organization of the memory system.
type Geometry struct {
	Channels      int
	Ranks         int // ranks per channel
	BankGroups    int // bank groups per rank
	BanksPerGroup int
	Rows          int // rows per bank
	Cols          int // 64-byte blocks per row
}

// DefaultGeometry returns the paper's baseline organization: 2 channels x
// 2 ranks of 8Gb x8 DDR4 chips (16 banks in 4 groups, 64K rows, 8KB rank
// rows = 128 blocks).
func DefaultGeometry() Geometry {
	return Geometry{Channels: 2, Ranks: 2, BankGroups: 4, BanksPerGroup: 4, Rows: 65536, Cols: 128}
}

// BanksPerRank returns the number of banks in one rank.
func (g Geometry) BanksPerRank() int { return g.BankGroups * g.BanksPerGroup }

// RowBytes returns the size in bytes of one rank row (DRAM page across all
// chips of the rank).
func (g Geometry) RowBytes() int { return g.Cols * BlockBytes }

// Capacity returns the total byte capacity of the memory system.
func (g Geometry) Capacity() uint64 {
	return uint64(g.Channels) * uint64(g.Ranks) * uint64(g.BanksPerRank()) *
		uint64(g.Rows) * uint64(g.RowBytes())
}

// SystemRowBytes returns the size of one "system row": one DRAM row in
// every bank of the system (the paper's coarse allocation granularity,
// 2 MiB for the baseline).
func (g Geometry) SystemRowBytes() int {
	return g.Channels * g.Ranks * g.BanksPerRank() * g.RowBytes()
}

// ErrRankTooLarge reports a geometry whose ranks hold more than 2³²
// blocks (a 256 GiB rank). The NDA runtime numbers a rank's blocks with
// 32-bit keys, so a larger rank would alias silently.
var ErrRankTooLarge = errors.New("dram: BanksPerRank·Rows·Cols exceeds 2^32 blocks per rank")

// Validate reports an error if the geometry is not usable.
func (g Geometry) Validate() error {
	for _, v := range []struct {
		name string
		n    int
	}{
		{"Channels", g.Channels}, {"Ranks", g.Ranks}, {"BankGroups", g.BankGroups},
		{"BanksPerGroup", g.BanksPerGroup}, {"Rows", g.Rows}, {"Cols", g.Cols},
	} {
		if v.n <= 0 || v.n&(v.n-1) != 0 {
			return fmt.Errorf("dram: geometry field %s = %d must be a positive power of two", v.name, v.n)
		}
	}
	// Sum exponents rather than multiply: the product of large powers of
	// two can overflow int.
	log2 := func(n int) int { return bits.TrailingZeros(uint(n)) }
	if log2(g.BankGroups)+log2(g.BanksPerGroup)+log2(g.Rows)+log2(g.Cols) > 32 {
		return fmt.Errorf("%w: %d·%d·%d·%d", ErrRankTooLarge, g.BankGroups, g.BanksPerGroup, g.Rows, g.Cols)
	}
	return nil
}

// BlockBytes is the data transferred by one column command: an 8-beat burst
// of the 64-bit rank interface (or 8 bytes per chip for internal access).
const BlockBytes = 64

// Timing holds DDR4 timing parameters in bus-clock cycles.
type Timing struct {
	BL   int // data burst length on the bus (4 clock cycles for BL8 DDR)
	CCDS int // column-to-column, different bank group
	CCDL int // column-to-column, same bank group
	RTRS int // rank-to-rank switch (bus)
	CL   int // read latency (CAS)
	RCD  int // ACT to column command
	RP   int // PRE to ACT
	CWL  int // write latency
	RAS  int // ACT to PRE
	RC   int // ACT to ACT, same bank
	RTP  int // read to PRE
	WTRS int // write to read, different bank group
	WTRL int // write to read, same bank group
	WR   int // write recovery (end of write data to PRE)
	RRDS int // ACT to ACT, different bank group
	RRDL int // ACT to ACT, same bank group
	FAW  int // four-activation window
}

// DDR42400 returns the paper's Table II DDR4 timing parameters.
func DDR42400() Timing {
	return Timing{
		BL: 4, CCDS: 4, CCDL: 6, RTRS: 2, CL: 16, RCD: 16,
		RP: 16, CWL: 12, RAS: 39, RC: 55, RTP: 9, WTRS: 3,
		WTRL: 9, WR: 18, RRDS: 4, RRDL: 6, FAW: 26,
	}
}

// Validate reports an error for inconsistent timing parameters.
func (t Timing) Validate() error {
	if t.BL <= 0 || t.CL <= 0 || t.CWL <= 0 || t.RCD <= 0 || t.RP <= 0 {
		return fmt.Errorf("dram: timing has non-positive core parameters: %+v", t)
	}
	if t.RC < t.RAS {
		return fmt.Errorf("dram: tRC (%d) < tRAS (%d)", t.RC, t.RAS)
	}
	if t.CCDL < t.CCDS || t.WTRL < t.WTRS || t.RRDL < t.RRDS {
		return fmt.Errorf("dram: same-bank-group timings must dominate: %+v", t)
	}
	if t.ReadToWrite() < t.CL-t.CWL {
		// The mc controller's lazy bank keys rely on the channel-bus
		// horizon (chanState.extCol) being monotone nondecreasing under
		// legal command sequences; a read-to-write turnaround shorter than
		// CL-CWL would let a WR's burst end before the preceding RD's,
		// moving DataBusyUntil backwards.
		return fmt.Errorf("dram: ReadToWrite (%d) < CL-CWL (%d): bus horizon not monotone", t.ReadToWrite(), t.CL-t.CWL)
	}
	return nil
}

// ReadToWrite returns the minimum command spacing from a RD to a WR sharing
// a data path (bus turnaround).
func (t Timing) ReadToWrite() int { return t.CL + t.BL + 2 - t.CWL }

// WriteToReadSameBG returns WR->RD command spacing within one bank group.
func (t Timing) WriteToReadSameBG() int { return t.CWL + t.BL + t.WTRL }

// WriteToReadDiffBG returns WR->RD command spacing across bank groups of
// the same rank.
func (t Timing) WriteToReadDiffBG() int { return t.CWL + t.BL + t.WTRS }
