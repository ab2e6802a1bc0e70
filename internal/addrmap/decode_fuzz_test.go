package addrmap

import (
	"testing"

	"chopim/internal/dram"
)

// refDecode is the bit-position-list decode the per-bit masks replaced:
// each output bit XORs the listed physical bits one shift at a time.
func refDecode(f field, pa uint64) int {
	v := 0
	for i, xs := range f.bits {
		b := uint64(0)
		for _, x := range xs {
			b ^= pa >> x
		}
		v |= int(b&1) << i
	}
	return v
}

// refMapDecode is Map.Decode over the bit lists, with the reserved-bank
// swap's row MSBs gathered one bit at a time from the top of the address
// (AddressBits), independently of the precomputed shifts.
func refMapDecode(m *Map, pa uint64) dram.Addr {
	a := dram.Addr{
		Channel:   refDecode(m.ch, pa),
		Rank:      refDecode(m.rank, pa),
		BankGroup: refDecode(m.bg, pa),
		Bank:      refDecode(m.bank, pa),
		Row:       refDecode(m.row, pa),
		Col:       refDecode(m.col, pa),
	}
	if m.reserved == 0 {
		return a
	}
	thresh := dram.BanksPerRank - m.reserved
	flat := a.GlobalBank()
	w := uint(len(m.bg.bits) + len(m.bank.bits))
	top := m.AddressBits()
	msb := 0
	for i := uint(0); i < w; i++ {
		msb |= int(pa>>(top-w+i)&1) << i
	}
	if flat < thresh && msb < thresh {
		return a
	}
	rowMask := (1 << w) - 1
	rowShift := uint(len(m.row.bits)) - w
	a.Row = a.Row&^(rowMask<<rowShift) | flat<<rowShift
	a.BankGroup = msb / dram.BanksPerGroup
	a.Bank = msb % dram.BanksPerGroup
	return a
}

// FuzzDecodeMatchesBitLists pins the mask-parity decode to the
// bit-position-list decode it replaced, bit for bit, on every field of
// the Skylake-like mapping and through the reserved-bank swap at every
// legal reservation, at 1-8 ranks per channel, for addresses both
// inside and beyond the geometry's capacity.
func FuzzDecodeMatchesBitLists(f *testing.F) {
	f.Add(uint8(1), uint64(0x1234_5678_9abc), uint8(1))
	f.Add(uint8(0), uint64(1<<63|1<<40), uint8(0))
	f.Add(uint8(3), ^uint64(0), uint8(14))
	f.Add(uint8(2), uint64(0xdead_beef_c0), uint8(2))
	f.Fuzz(func(t *testing.T, rk uint8, raw uint64, rbRaw uint8) {
		g := dram.Geometry{Ranks: 1 << (rk % 4)}
		maps := []*Map{mustNew(t, g, 0), mustNew(t, g, int(rbRaw)%(dram.BanksPerRank-1)+1)}
		for _, pa := range []uint64{raw, raw % g.Capacity()} {
			for _, m := range maps {
				if got, want := m.Decode(pa), refMapDecode(m, pa); got != want {
					t.Fatalf("%+v reserved=%d: Decode(%#x) = %+v, bit lists give %+v", g, m.reserved, pa, got, want)
				}
			}
		}
	})
}

// TestDecodeMatchesBitListsSweep runs the fuzz body over every rank
// count and reservation at a few fixed addresses, so plain `go test`
// covers them all, not just the seed corpus.
func TestDecodeMatchesBitListsSweep(t *testing.T) {
	addrs := []uint64{0, 64, 0x1234_5678_9abc, 0x7_ffff_ffc0, ^uint64(0)}
	for _, ranks := range []int{1, 2, 4, 8} {
		g := dram.Geometry{Ranks: ranks}
		for rb := 0; rb < dram.BanksPerRank; rb++ {
			m := mustNew(t, g, rb)
			for _, raw := range addrs {
				for _, pa := range []uint64{raw, raw % g.Capacity()} {
					if got, want := m.Decode(pa), refMapDecode(m, pa); got != want {
						t.Fatalf("%+v reserved=%d: Decode(%#x) = %+v, bit lists give %+v",
							g, m.reserved, pa, got, want)
					}
				}
			}
		}
	}
}
