package addrmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chopim/internal/dram"
)

func encodeKey(g dram.Geometry, a dram.Addr) uint64 {
	k := uint64(a.Channel)
	k = k*uint64(g.Ranks) + uint64(a.Rank)
	k = k*uint64(g.BankGroups) + uint64(a.BankGroup)
	k = k*uint64(g.BanksPerGroup) + uint64(a.Bank)
	k = k*uint64(g.Rows) + uint64(a.Row)
	k = k*uint64(g.Cols) + uint64(a.Col)
	return k
}

// mustNew builds the mapping for g with reserved banks per rank.
func mustNew(t testing.TB, g dram.Geometry, reserved int) *Map {
	t.Helper()
	m, err := New(g, reserved)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSkylakeLikeCoversAddressBits(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 0)
	// 32 GiB => 35 address bits.
	if got, want := m.AddressBits(), uint(35); got != want {
		t.Errorf("AddressBits() = %d, want %d", got, want)
	}
}

// TestSkylakeLikeBijective: distinct block addresses decode to distinct
// DRAM locations (sampled; the mapping is linear so random sampling plus
// the basis test below gives high confidence).
func TestSkylakeLikeBijective(t *testing.T) {
	g := dram.Geometry{Channels: 2, Ranks: 2, BankGroups: 2, BanksPerGroup: 2, Rows: 256, Cols: 16}
	m := mustNew(t, g, 0)
	seen := make(map[uint64]uint64)
	n := g.Capacity()
	for pa := uint64(0); pa < n; pa += dram.BlockBytes {
		k := encodeKey(g, m.Decode(pa))
		if prev, dup := seen[k]; dup {
			t.Fatalf("alias: %#x and %#x decode to same location", prev, pa)
		}
		seen[k] = pa
	}
}

// TestPartitionedBijective exhaustively verifies the swap keeps the
// mapping alias-free on a reduced geometry.
func TestPartitionedBijective(t *testing.T) {
	g := dram.Geometry{Channels: 2, Ranks: 2, BankGroups: 2, BanksPerGroup: 2, Rows: 256, Cols: 16}
	for _, reserved := range []int{1, 2, 3} {
		m := mustNew(t, g, reserved)
		seen := make(map[uint64]uint64)
		for pa := uint64(0); pa < g.Capacity(); pa += dram.BlockBytes {
			k := encodeKey(g, m.Decode(pa))
			if prev, dup := seen[k]; dup {
				t.Fatalf("reserved=%d: alias between %#x and %#x", reserved, prev, pa)
			}
			seen[k] = pa
		}
	}
}

// TestPartitionIsolation: host-region addresses never land in reserved
// banks, and shared-region addresses always do.
func TestPartitionIsolation(t *testing.T) {
	g := dram.Geometry{Channels: 2, Ranks: 2, BankGroups: 2, BanksPerGroup: 2, Rows: 256, Cols: 16}
	for _, reserved := range []int{1, 2} {
		m := mustNew(t, g, reserved)
		for pa := uint64(0); pa < g.Capacity(); pa += dram.BlockBytes {
			a := m.Decode(pa)
			flat := a.GlobalBank(g)
			inShared := pa >= m.SharedBase()
			if inShared && !m.IsSharedBank(flat) {
				t.Fatalf("reserved=%d: shared addr %#x landed in host bank %d", reserved, pa, flat)
			}
			if !inShared && m.IsSharedBank(flat) {
				t.Fatalf("reserved=%d: host addr %#x landed in reserved bank %d", reserved, pa, flat)
			}
		}
	}
}

// TestPartitionIsolationFullGeometry samples the real 32 GiB geometry.
func TestPartitionIsolationFullGeometry(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 1)
	rng := rand.New(rand.NewSource(1))
	cap := g.Capacity()
	for i := 0; i < 200000; i++ {
		pa := rng.Uint64() % cap &^ (dram.BlockBytes - 1)
		a := m.Decode(pa)
		flat := a.GlobalBank(g)
		if (pa >= m.SharedBase()) != m.IsSharedBank(flat) {
			t.Fatalf("isolation violated at %#x: bank %d, shared base %#x", pa, flat, m.SharedBase())
		}
	}
}

// TestColorAlignment: two system-row-aligned addresses agreeing on all
// color bits decode to the same channel/rank/bank at every common offset.
func TestColorAlignment(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 0)
	sysRow := uint64(g.SystemRowBytes())

	// Color stride: smallest address delta preserving all color bits.
	var colorMask uint64
	for _, b := range m.ColorBits() {
		colorMask |= 1 << b
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		base1 := (rng.Uint64() % (g.Capacity() / sysRow)) * sysRow
		// Find another system row with identical color bits.
		base2 := base1
		for attempts := 0; attempts < 10000; attempts++ {
			cand := (rng.Uint64() % (g.Capacity() / sysRow)) * sysRow
			if cand != base1 && cand&colorMask == base1&colorMask {
				base2 = cand
				break
			}
		}
		if base2 == base1 {
			continue
		}
		for i := 0; i < 64; i++ {
			off := rng.Uint64() % sysRow &^ (dram.BlockBytes - 1)
			a1 := m.Decode(base1 + off)
			a2 := m.Decode(base2 + off)
			if a1.Channel != a2.Channel || a1.Rank != a2.Rank ||
				a1.BankGroup != a2.BankGroup || a1.Bank != a2.Bank {
				t.Fatalf("color-aligned bases %#x/%#x diverge at offset %#x: %+v vs %+v",
					base1, base2, off, a1, a2)
			}
		}
	}
}

// TestChannelInterleavingIsFine: consecutive blocks should spread across
// channels with fine granularity (within a few blocks).
func TestChannelInterleavingIsFine(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 0)
	seen := map[int]bool{}
	for pa := uint64(0); pa < 8*dram.BlockBytes; pa += dram.BlockBytes {
		seen[m.Decode(pa).Channel] = true
	}
	if len(seen) != g.Channels {
		t.Errorf("first 8 blocks touch %d channels, want %d", len(seen), g.Channels)
	}
}

// TestRowHashingSpreadsBanks: walking rows at a fixed column should visit
// many distinct banks (the permutation interleaving the paper relies on).
func TestRowHashingSpreadsBanks(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 0)
	rowStride := uint64(g.RowBytes()) * uint64(g.Channels) * uint64(g.Ranks) * uint64(g.BanksPerRank())
	banks := map[int]bool{}
	for i := uint64(0); i < 64; i++ {
		a := m.Decode(i * rowStride)
		banks[a.GlobalBank(g)] = true
	}
	if len(banks) < 4 {
		t.Errorf("row-strided walk hit only %d distinct banks; hashing ineffective", len(banks))
	}
}

func TestScaledGeometries(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		g := dram.DefaultGeometry()
		g.Ranks = ranks
		m := mustNew(t, g, 0)
		// Decode of the last valid address must stay in range.
		a := m.Decode(g.Capacity() - dram.BlockBytes)
		if a.Rank >= ranks || a.Row >= g.Rows || a.Col >= g.Cols {
			t.Errorf("ranks=%d: decode out of range: %+v", ranks, a)
		}
		p := mustNew(t, g, 1)
		if p.HostCapacity() != g.Capacity()/16*15 {
			t.Errorf("ranks=%d: HostCapacity = %d", ranks, p.HostCapacity())
		}
	}
}

// TestNewPartitionedRejectsBadCounts: a reservation must leave at least
// one bank per rank to the host (0 is the unpartitioned baseline).
func TestNewPartitionedRejectsBadCounts(t *testing.T) {
	for _, bad := range []int{16, 17, -1} {
		if _, err := New(dram.DefaultGeometry(), bad); err == nil {
			t.Errorf("New(reservedBanks=%d) accepted", bad)
		}
	}
}

// Property: decode is deterministic and in-range for random addresses.
func TestDecodeInRange(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 2)
	f := func(raw uint64) bool {
		pa := raw % g.Capacity() &^ (dram.BlockBytes - 1)
		a := m.Decode(pa)
		return a.Channel >= 0 && a.Channel < g.Channels &&
			a.Rank >= 0 && a.Rank < g.Ranks &&
			a.BankGroup >= 0 && a.BankGroup < g.BankGroups &&
			a.Bank >= 0 && a.Bank < g.BanksPerGroup &&
			a.Row >= 0 && a.Row < g.Rows &&
			a.Col >= 0 && a.Col < g.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
