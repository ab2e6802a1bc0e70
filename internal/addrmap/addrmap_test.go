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
	k = k*dram.BankGroups + uint64(a.BankGroup)
	k = k*dram.BanksPerGroup + uint64(a.Bank)
	k = k*dram.Rows + uint64(a.Row)
	k = k*dram.Cols + uint64(a.Col)
	return k
}

// windowAddrs returns every block address whose set bits lie in a
// 16-bit window of m's layout: the two lowest column bits, each
// channel, bank-group, bank and rank bit, and the four lowest row bits
// (the first hash partners) and four highest (the reserved-bank
// swap's). At 2 ranks it reaches every bank, 256 rows and 4 columns
// per rank: as dense in bank and row conflicts as an exhaustive walk
// of a 2x2-bank, 256-row, 16-column memory, where walking all 32 GiB
// would take minutes.
func windowAddrs(m *Map) []uint64 {
	var pos []uint
	for _, f := range []field{m.ch, m.bg, m.bank, m.rank} {
		for _, xs := range f.bits {
			pos = append(pos, xs[0])
		}
	}
	rows := m.row.bits
	for _, xs := range [][][]uint{m.col.bits[:2], rows[:4], rows[len(rows)-4:]} {
		for _, x := range xs {
			pos = append(pos, x[0])
		}
	}
	out := make([]uint64, 0, 1<<len(pos))
	for i := 0; i < 1<<len(pos); i++ {
		var pa uint64
		for j, p := range pos {
			pa |= uint64(i>>j&1) << p
		}
		out = append(out, pa)
	}
	return out
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
// DRAM locations (over windowAddrs; the mapping is linear, so the window
// plus the basis test below gives high confidence).
func TestSkylakeLikeBijective(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 0)
	seen := make(map[uint64]uint64)
	for _, pa := range windowAddrs(m) {
		k := encodeKey(g, m.Decode(pa))
		if prev, dup := seen[k]; dup {
			t.Fatalf("alias: %#x and %#x decode to same location", prev, pa)
		}
		seen[k] = pa
	}
}

// TestPartitionedBijective verifies over windowAddrs, which holds every
// bank-field and row-MSB pattern, that the swap keeps the mapping
// alias-free.
func TestPartitionedBijective(t *testing.T) {
	g := dram.DefaultGeometry()
	for _, reserved := range []int{1, 2, 3} {
		m := mustNew(t, g, reserved)
		seen := make(map[uint64]uint64)
		for _, pa := range windowAddrs(m) {
			k := encodeKey(g, m.Decode(pa))
			if prev, dup := seen[k]; dup {
				t.Fatalf("reserved=%d: alias between %#x and %#x", reserved, prev, pa)
			}
			seen[k] = pa
		}
	}
}

// TestPartitionIsolation: host-region addresses never land in reserved
// banks, and shared-region addresses always do (over windowAddrs).
func TestPartitionIsolation(t *testing.T) {
	g := dram.DefaultGeometry()
	for _, reserved := range []int{1, 2} {
		m := mustNew(t, g, reserved)
		for _, pa := range windowAddrs(m) {
			a := m.Decode(pa)
			flat := a.GlobalBank()
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
		flat := a.GlobalBank()
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
	m := mustNew(t, dram.DefaultGeometry(), 0)
	seen := map[int]bool{}
	for pa := uint64(0); pa < 8*dram.BlockBytes; pa += dram.BlockBytes {
		seen[m.Decode(pa).Channel] = true
	}
	if len(seen) != dram.Channels {
		t.Errorf("first 8 blocks touch %d channels, want %d", len(seen), dram.Channels)
	}
}

// TestRowHashingSpreadsBanks: walking rows at a fixed column should visit
// many distinct banks (the permutation interleaving the paper relies on).
func TestRowHashingSpreadsBanks(t *testing.T) {
	g := dram.DefaultGeometry()
	m := mustNew(t, g, 0)
	rowStride := uint64(g.SystemRowBytes())
	banks := map[int]bool{}
	for i := uint64(0); i < 64; i++ {
		a := m.Decode(i * rowStride)
		banks[a.GlobalBank()] = true
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
		if a.Rank >= ranks || a.Row >= dram.Rows || a.Col >= dram.Cols {
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
		return a.Channel >= 0 && a.Channel < dram.Channels &&
			a.Rank >= 0 && a.Rank < g.Ranks &&
			a.BankGroup >= 0 && a.BankGroup < dram.BankGroups &&
			a.Bank >= 0 && a.Bank < dram.BanksPerGroup &&
			a.Row >= 0 && a.Row < dram.Rows &&
			a.Col >= 0 && a.Col < dram.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
