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
	g := m.geom
	thresh := g.BanksPerRank() - m.reserved
	flat := a.GlobalBank(g)
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
	a.BankGroup = msb / g.BanksPerGroup
	a.Bank = msb % g.BanksPerGroup
	return a
}

// fuzzDecodeGeometry maps fuzz bytes onto a geometry Geometry.Validate
// admits: 1-4 channels, 1-8 ranks, 1-4 bank groups of 1-4 banks, at
// least as many rows as banks per rank (the partitioned swap moves the
// bank field into the row MSBs), and 1-128 columns.
func fuzzDecodeGeometry(ch, rk, bg, bk, rows, cols uint8) dram.Geometry {
	g := dram.Geometry{
		Channels:      1 << (ch % 3),
		Ranks:         1 << (rk % 4),
		BankGroups:    1 << (bg % 3),
		BanksPerGroup: 1 << (bk % 3),
		Cols:          1 << (cols % 8),
	}
	g.Rows = g.BanksPerRank() << (rows % 9)
	return g
}

// FuzzDecodeMatchesBitLists pins the mask-parity decode to the
// bit-position-list decode it replaced, bit for bit, on every field of
// the Skylake-like mapping and through the reserved-bank swap at every
// legal reservation, for addresses both inside and beyond
// the geometry's capacity.
func FuzzDecodeMatchesBitLists(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(2), uint8(2), uint8(8), uint8(7), uint64(0x1234_5678_9abc), uint8(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint64(1<<63|1<<40), uint8(0))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(2), uint8(4), uint8(5), ^uint64(0), uint8(14))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(0), uint8(1), uint8(3), uint64(0xdead_beef_c0), uint8(2))
	f.Fuzz(func(t *testing.T, ch, rk, bg, bk, rows, cols uint8, raw uint64, rbRaw uint8) {
		g := fuzzDecodeGeometry(ch, rk, bg, bk, rows, cols)
		if err := g.Validate(); err != nil {
			t.Fatalf("generated geometry rejected: %v", err)
		}
		maps := []*Map{mustNew(t, g, 0)}
		if nb := g.BanksPerRank(); nb >= 2 {
			maps = append(maps, mustNew(t, g, int(rbRaw)%(nb-1)+1))
		}
		for _, pa := range []uint64{raw, raw % g.Capacity()} {
			for _, m := range maps {
				if got, want := m.Decode(pa), refMapDecode(m, pa); got != want {
					t.Fatalf("%+v reserved=%d: Decode(%#x) = %+v, bit lists give %+v", g, m.reserved, pa, got, want)
				}
			}
		}
	})
}

// TestDecodeMatchesBitListsSweep runs the fuzz body over every geometry
// the generator can produce at a few fixed addresses, so plain `go test`
// covers the whole geometry space, not just the seed corpus.
func TestDecodeMatchesBitListsSweep(t *testing.T) {
	addrs := []uint64{0, 64, 0x1234_5678_9abc, 0x7_ffff_ffc0, ^uint64(0)}
	for ch := uint8(0); ch < 3; ch++ {
		for rk := uint8(0); rk < 4; rk++ {
			for bg := uint8(0); bg < 3; bg++ {
				for bk := uint8(0); bk < 3; bk++ {
					for _, rows := range []uint8{0, 4, 8} {
						for _, cols := range []uint8{0, 1, 7} {
							g := fuzzDecodeGeometry(ch, rk, bg, bk, rows, cols)
							var maps []*Map
							for rb := 0; rb < g.BanksPerRank(); rb++ {
								maps = append(maps, mustNew(t, g, rb))
							}
							for _, raw := range addrs {
								for _, pa := range []uint64{raw, raw % g.Capacity()} {
									for _, m := range maps {
										if got, want := m.Decode(pa), refMapDecode(m, pa); got != want {
											t.Fatalf("%+v reserved=%d: Decode(%#x) = %+v, bit lists give %+v",
												g, m.reserved, pa, got, want)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
