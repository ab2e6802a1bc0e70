package addrmap

import (
	"math/bits"
	"testing"

	"chopim/internal/dram"
)

// FuzzColumnBits pins the ColumnBits contract operand layouts rely on:
// flipping any subset x of the column-only bits leaves every field but
// Col unchanged, and XORs Col by the same value at every address.
func FuzzColumnBits(f *testing.F) {
	f.Add(uint8(1), uint8(1), true, uint64(0x1234_5678_9abc), uint64(0), ^uint64(0))
	f.Add(uint8(0), uint8(3), false, uint64(1<<40), uint64(0xdead_beef_c0), uint64(0x2c0))
	f.Add(uint8(2), uint8(2), true, ^uint64(0), uint64(64), uint64(1<<6))
	f.Fuzz(func(t *testing.T, chLog, rkLog uint8, partitioned bool, pa, pa2, xRaw uint64) {
		g := dram.DefaultGeometry()
		g.Channels, g.Ranks = 1<<(chLog%3), 1<<(rkLog%4)
		reserved := 0
		if partitioned {
			reserved = 1
		}
		m := mustNew(t, g, reserved)
		x := xRaw & m.ColumnBits()
		a, ax := m.Decode(pa), m.Decode(pa^x)
		d := ax.Col ^ a.Col
		ax.Col = a.Col
		if ax != a {
			t.Fatalf("%s: flipping column-only bits %#x of %#x moves a field other than Col: %+v vs %+v",
				m.Fingerprint(), x, pa, m.Decode(pa^x), a)
		}
		if d2 := m.Decode(pa2^x).Col ^ m.Decode(pa2).Col; d2 != d {
			t.Fatalf("%s: flipping %#x XORs Col by %#x at %#x but by %#x at %#x",
				m.Fingerprint(), x, d, pa, d2, pa2)
		}
	})
}

// TestDefaultColumnBits checks that the default geometry's 7 column bits
// are all column-only, with and without partitioning, so operand layouts
// decode one address per 128 blocks rather than one per block.
func TestDefaultColumnBits(t *testing.T) {
	for reserved := 0; reserved <= 1; reserved++ {
		m := mustNew(t, dram.DefaultGeometry(), reserved)
		if n := bits.OnesCount64(m.ColumnBits()); n != 7 {
			t.Errorf("%s: %d column-only bits (%#x), want 7", m.Fingerprint(), n, m.ColumnBits())
		}
	}
}
