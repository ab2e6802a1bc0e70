// Package addrmap translates OS physical addresses into DRAM addresses
// (channel, rank, bank group, bank, row, column).
//
// One concrete type, Map, provides the paper's two mappings; New picks
// between them by the number of reserved banks per rank:
//
//   - 0: the Skylake-style baseline (Fig 4a): fine-grain channel
//     interleaving and XOR hashing of bank/rank/channel bits with row
//     bits, as reverse engineered by Pessl et al. (DRAMA).
//   - 1 or more: the proposed mapping (Fig 4b), the baseline plus bank
//     partitioning compatible with huge pages and arbitrary hashing: the
//     most significant physical bits select only the row, and addresses
//     whose hashed bank lands in a reserved bank have their bank bits and
//     row MSBs swapped (the one branch in Map.Decode).
//
// It also exposes the PFN "color" bits that the OS/runtime use to keep NDA
// operands rank-aligned (Section III-A).
package addrmap

import (
	"fmt"
	"math/bits"

	"chopim/internal/dram"
)

// field describes each decoded output bit as the XOR of physical bits.
// bits keeps the positions for construction-time consumers (color bits,
// field widths); decode reads only masks, one per output bit with every
// XORed position set, so an output bit is the parity of pa&mask.
type field struct {
	bits  [][]uint // per output bit, the physical bit positions XORed
	masks []uint64 // per output bit, the positions of bits as a mask
}

// newField builds a field from its per-output-bit position lists. The
// masks XOR positions in, so a position listed twice cancels exactly as
// it does in the list's XOR (and one past bit 63 drops out, as its
// shift does).
func newField(pos [][]uint) field {
	f := field{bits: pos, masks: make([]uint64, len(pos))}
	for i, xs := range pos {
		for _, x := range xs {
			f.masks[i] ^= 1 << x
		}
	}
	return f
}

func (f field) decode(pa uint64) int {
	v := 0
	for i, m := range f.masks {
		v |= (bits.OnesCount64(pa&m) & 1) << i
	}
	return v
}

// Map is the paper's address mapping: the Skylake-like XOR baseline
// (Fig 4a) and, when banks are reserved, the proposed mapping's
// reserved-bank swap on top of it (Fig 4b). Every field is linear in the
// address bits; the swap is the one non-linear step.
type Map struct {
	geom dram.Geometry

	ch, rank, bg, bank, row, col field
	colorBits                    []uint
	colOnly                      uint64 // see ColumnBits

	// reserved is the number of top banks per rank set aside for the
	// shared (host+NDA) region; 0 is the unpartitioned baseline. The
	// swap reads the top bankW row physical bits, which are contiguous
	// from rowMSBLow, as one shifted field, and writes the hashed bank
	// into the row's top bankW bits (from rowShift).
	reserved  int
	bankW     uint
	rowMSBLow uint
	rowShift  uint
	fp        string // immutable, set at construction
}

// log2 returns floor(log2(n)); n must be a positive power of two.
func log2(n int) uint {
	var k uint
	for 1<<(k+1) <= n {
		k++
	}
	if 1<<k != n {
		panic(fmt.Sprintf("addrmap: %d is not a power of two", n))
	}
	return k
}

// New builds the mapping for the Table II organization with g.Ranks
// ranks per channel and reservedBanks top banks per rank set aside for
// the shared region: 0 is the baseline (Fig 4a), 1 to
// dram.BanksPerRank-1 the proposed mapping (Fig 4b). The
// baseline layout is
//
//	block offset (6b) | col[0:2] | channel (hashed) | col[2:] |
//	bank group (hashed) | bank (hashed) | rank (hashed) | row (direct)
//
// Channel, bank-group, bank, and rank bits are each XORed with low row
// bits so that strided host access patterns spread across banks (the
// permutation-based interleaving the paper assumes). The top row bits are
// direct physical MSBs, which the reserved-bank swap requires.
//
// An invalid rank count (Geometry.Validate) or an out-of-range reservation
// is returned as an error: sweep drivers must be able to reject a bad
// point without killing the process. Past those checks, construction
// cannot fail.
func New(g dram.Geometry, reservedBanks int) (*Map, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if reservedBanks < 0 || reservedBanks >= dram.BanksPerRank {
		return nil, fmt.Errorf("addrmap: reservedBanks %d out of range [0,%d)", reservedBanks, dram.BanksPerRank)
	}
	m := &Map{geom: g, reserved: reservedBanks}
	pos := uint(6) // 64B block offset

	nCol := log2(dram.Cols)
	nCh := log2(dram.Channels)
	nBG := log2(dram.BankGroups)
	nBank := log2(dram.BanksPerGroup)
	nRank := log2(g.Ranks)
	nRow := log2(dram.Rows)

	// Row bits start after all interleave fields.
	rowBase := 6 + nCol + nCh + nBG + nBank + nRank
	hash := rowBase // next row-region bit used as an XOR partner

	take := func(n uint, hashed bool) [][]uint {
		var f [][]uint
		for i := uint(0); i < n; i++ {
			xs := []uint{pos}
			if hashed {
				xs = append(xs, hash)
				hash++
			}
			f = append(f, xs)
			pos++
		}
		return f
	}

	nColLow := min(2, nCol)
	colLow := take(nColLow, false)
	m.ch = newField(take(nCh, true))
	m.col = newField(append(colLow, take(nCol-nColLow, false)...))
	m.bg = newField(take(nBG, true))
	m.bank = newField(take(nBank, true))
	m.rank = newField(take(nRank, true))
	if pos != rowBase {
		panic("addrmap: internal layout error")
	}
	m.row = newField(take(nRow, false))

	// Color bits: every physical bit above the system-row offset that
	// influences ch/rank/bg/bank. System row offset covers all bits below
	// rowBase plus the hash partners consumed (hash partners sit at the
	// bottom of the row region, inside the system-row span).
	sysRowBits := log2(g.SystemRowBytes())
	seen := map[uint]bool{}
	for _, f := range []field{m.ch, m.rank, m.bg, m.bank} {
		for _, xs := range f.bits {
			for _, x := range xs {
				if x >= sysRowBits && !seen[x] {
					seen[x] = true
					m.colorBits = append(m.colorBits, x)
				}
			}
		}
	}
	// Column-only bits: in the column masks and in no other field's.
	var other uint64
	for _, f := range []field{m.ch, m.rank, m.bg, m.bank, m.row} {
		for _, mk := range f.masks {
			other |= mk
		}
	}
	for _, mk := range m.col.masks {
		m.colOnly |= mk &^ other
	}
	// The swap's fields: the top bank-field-width row physical bits
	// (pos is one past the highest physical bit) and the row's top bits.
	m.bankW = nBG + nBank
	m.rowMSBLow = pos - m.bankW
	m.rowShift = nRow - m.bankW
	// The layout is a pure function of the geometry and the
	// reservation, so the two identify the mapping exactly.
	m.fp = fmt.Sprintf("skylake/%dch-%drk-%dbg-%dbk-%drow-%dcol",
		dram.Channels, g.Ranks, dram.BankGroups, dram.BanksPerGroup, dram.Rows, dram.Cols)
	if reservedBanks > 0 {
		m.fp += fmt.Sprintf("/part%d", reservedBanks)
	}
	return m, nil
}

// Decode translates a physical address into a DRAM location. With banks
// reserved it applies the reserved-bank swap, which fires when either
// the hash places the access in a reserved bank (relocating host data
// out of the shared banks) or the address MSBs carry a reserved pattern
// (pinning shared-region data into the reserved banks) — the two sides
// of the Fig 4b multiplexer. It swaps the bank field with the row MSBs:
// new bank = MSBs, new row MSBs = hashed bank. The four (bank reserved?,
// MSB reserved?) cases land in disjoint quadrants, so the mapping stays
// alias-free.
func (m *Map) Decode(pa uint64) dram.Addr {
	a := dram.Addr{
		Channel:   m.ch.decode(pa),
		Rank:      m.rank.decode(pa),
		BankGroup: m.bg.decode(pa),
		Bank:      m.bank.decode(pa),
		Row:       m.row.decode(pa),
		Col:       m.col.decode(pa),
	}
	if m.reserved == 0 {
		return a
	}
	thresh := dram.BanksPerRank - m.reserved
	flat := a.GlobalBank()
	mask := 1<<m.bankW - 1
	msb := int(pa>>m.rowMSBLow) & mask
	if flat < thresh && msb < thresh {
		return a
	}
	a.Row = a.Row&^(mask<<m.rowShift) | flat<<m.rowShift
	a.BankGroup = msb / dram.BanksPerGroup
	a.Bank = msb % dram.BanksPerGroup
	return a
}

// Geometry returns the geometry the mapping decodes into.
func (m *Map) Geometry() dram.Geometry { return m.geom }

// ReservedBanks returns the banks per rank set aside for the shared
// region; 0 for the unpartitioned baseline.
func (m *Map) ReservedBanks() int { return m.reserved }

// ColorBits returns the physical-address bit positions (all above the
// system-row offset) that influence channel/rank/bank selection. Two
// system-row-aligned allocations whose addresses agree on these bits
// interleave identically across the memory system.
func (m *Map) ColorBits() []uint { return m.colorBits }

// ColumnBits returns the physical-address bits that feed the column
// field and no other field. Flipping any subset x of them leaves every
// decoded field but Col unchanged and XORs Col by a value that depends
// on x alone, so one Decode per distinct value of the other bits
// determines the columns of all of them. The baseline fields are
// linear, so flipping bits no other field reads moves only Col, by the
// column decode of the flipped bits; the reserved-bank swap reads and
// writes only the bank fields and the row MSBs, neither of which a
// column-only bit feeds.
func (m *Map) ColumnBits() uint64 { return m.colOnly }

// Fingerprint identifies the mapping function: two maps with equal
// fingerprints decode every physical address identically. Decoded-
// layout caches key on it to share results across map instances (e.g.
// forked simulations rebuilt from a snapshot).
func (m *Map) Fingerprint() string { return m.fp }

// AddressBits returns the number of physical address bits the mapping
// consumes (log2 of capacity).
func (m *Map) AddressBits() uint {
	return uint(len(m.row.bits)+len(m.col.bits)+len(m.ch.bits)+
		len(m.rank.bits)+len(m.bg.bits)+len(m.bank.bits)) + 6
}

// HostCapacity returns the bytes of physical space usable for host-only
// allocations (the bottom of the address space): all of it when no
// banks are reserved.
func (m *Map) HostCapacity() uint64 {
	return m.geom.Capacity() / dram.BanksPerRank * uint64(dram.BanksPerRank-m.reserved)
}

// SharedBase returns the first physical address of the shared region.
func (m *Map) SharedBase() uint64 { return m.HostCapacity() }

// IsSharedBank reports whether the rank-local flat bank index belongs to
// the reserved (shared host+NDA) partition.
func (m *Map) IsSharedBank(flatBank int) bool {
	return flatBank >= dram.BanksPerRank-m.reserved
}
