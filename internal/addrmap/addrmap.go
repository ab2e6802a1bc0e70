// Package addrmap translates OS physical addresses into DRAM addresses
// (channel, rank, bank group, bank, row, column).
//
// It provides the paper's two mappings:
//
//   - A Skylake-style baseline (Fig 4a): fine-grain channel interleaving
//     and XOR hashing of bank/rank/channel bits with row bits, as reverse
//     engineered by Pessl et al. (DRAMA).
//   - The proposed mapping (Fig 4b) that additionally supports bank
//     partitioning compatible with huge pages and arbitrary hashing: the
//     most significant physical bits select only the row, and addresses
//     whose hashed bank lands in a reserved bank have their bank bits and
//     row MSBs swapped.
//
// It also exposes the PFN "color" bits that the OS/runtime use to keep NDA
// operands rank-aligned (Section III-A).
package addrmap

import (
	"fmt"
	"math/bits"

	"chopim/internal/dram"
)

// Mapper decodes a physical address into a DRAM location.
type Mapper interface {
	Decode(pa uint64) dram.Addr
	Geometry() dram.Geometry
	// ColorBits returns the physical-address bit positions (all above the
	// system-row offset) that influence channel/rank/bank selection. Two
	// system-row-aligned allocations whose addresses agree on these bits
	// interleave identically across the memory system.
	ColorBits() []uint
	// ColumnBits returns the physical-address bits that feed the column
	// field and no other field. Flipping any subset x of them leaves
	// every decoded field but Col unchanged and XORs Col by a value that
	// depends on x alone, so one Decode per distinct value of the other
	// bits determines the columns of all of them.
	ColumnBits() uint64
	// Fingerprint identifies the mapping function: two mappers with equal
	// fingerprints decode every physical address identically. Decoded-
	// layout caches key on it to share results across mapper instances
	// (e.g. forked simulations rebuilt from a snapshot).
	Fingerprint() string
}

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

// XORMap is a generic linear (XOR-based) address mapping.
type XORMap struct {
	geom dram.Geometry

	ch, rank, bg, bank, row, col field
	colorBits                    []uint
	colOnly                      uint64 // see ColumnBits
	// rowMSBLow is the lowest of the top bank-field-width row physical
	// bits; those bits are contiguous, so the partitioned mapping reads
	// them as one shifted field.
	rowMSBLow uint
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

// NewSkylakeLike builds the baseline mapping for the given geometry:
//
//	block offset (6b) | col[0:2] | channel (hashed) | col[2:] |
//	bank group (hashed) | bank (hashed) | rank (hashed) | row (direct)
//
// Channel, bank-group, bank, and rank bits are each XORed with low row
// bits so that strided host access patterns spread across banks (the
// permutation-based interleaving the paper assumes). The top row bits are
// direct physical MSBs, which the proposed partitioned mapping requires.
func NewSkylakeLike(g dram.Geometry) *XORMap {
	m, err := NewSkylakeLikeChecked(g)
	if err != nil {
		panic(err)
	}
	return m
}

// NewSkylakeLikeChecked is NewSkylakeLike returning invalid geometry as
// an error instead of panicking — the form sweep drivers use, where a
// bad point must be rejectable without killing the process. Geometry
// validation (positive powers of two everywhere, at most 2³² blocks per
// rank) is the only failure mode; past it, construction cannot fail.
func NewSkylakeLikeChecked(g dram.Geometry) (*XORMap, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &XORMap{geom: g}
	pos := uint(6) // 64B block offset

	nCol := log2(g.Cols)
	nCh := log2(g.Channels)
	nBG := log2(g.BankGroups)
	nBank := log2(g.BanksPerGroup)
	nRank := log2(g.Ranks)
	nRow := log2(g.Rows)

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

	nColLow := uint(2)
	if nCol < nColLow {
		nColLow = nCol
	}
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
	// Record the top bank-field-width row physical bits for partitioning
	// (pos is one past the highest physical bit).
	m.rowMSBLow = pos - (nBG + nBank)
	// The Skylake-like layout is a pure function of the geometry, so the
	// geometry identifies the mapping exactly.
	m.fp = fmt.Sprintf("skylake/%dch-%drk-%dbg-%dbk-%drow-%dcol",
		g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup, g.Rows, g.Cols)
	return m, nil
}

// Decode implements Mapper.
func (m *XORMap) Decode(pa uint64) dram.Addr {
	return dram.Addr{
		Channel:   m.ch.decode(pa),
		Rank:      m.rank.decode(pa),
		BankGroup: m.bg.decode(pa),
		Bank:      m.bank.decode(pa),
		Row:       m.row.decode(pa),
		Col:       m.col.decode(pa),
	}
}

// Geometry implements Mapper.
func (m *XORMap) Geometry() dram.Geometry { return m.geom }

// ColorBits implements Mapper.
func (m *XORMap) ColorBits() []uint { return m.colorBits }

// ColumnBits implements Mapper. Every field is linear in the address
// bits, so flipping bits no other field reads moves only Col, by the
// column decode of the flipped bits.
func (m *XORMap) ColumnBits() uint64 { return m.colOnly }

// Fingerprint implements Mapper.
func (m *XORMap) Fingerprint() string { return m.fp }

// AddressBits returns the number of physical address bits the mapping
// consumes (log2 of capacity).
func (m *XORMap) AddressBits() uint {
	return uint(len(m.row.bits)+len(m.col.bits)+len(m.ch.bits)+
		len(m.rank.bits)+len(m.bg.bits)+len(m.bank.bits)) + 6
}

// PartitionedMap implements the paper's proposed mapping (Fig 4b). The OS
// reserves the top ReservedBanks banks of every rank for the shared
// (host+NDA) region and the top slice of the physical address space to
// back them. Host-only addresses never carry the reserved patterns in
// their MSBs; when the base hash maps such an address onto a reserved
// bank, the bank field and the row MSBs are swapped, relocating the access
// into a host-only bank without aliasing.
type PartitionedMap struct {
	Base          *XORMap
	ReservedBanks int // banks per rank dedicated to the shared region
}

// NewPartitioned wraps base with reservedBanks top banks set aside per
// rank. reservedBanks must be in [1, banksPerRank-1].
func NewPartitioned(base *XORMap, reservedBanks int) *PartitionedMap {
	p, err := NewPartitionedChecked(base, reservedBanks)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPartitionedChecked is NewPartitioned returning an out-of-range
// reservation as an error instead of panicking (the sweep-driver form:
// a bad point must be rejectable without killing the process).
func NewPartitionedChecked(base *XORMap, reservedBanks int) (*PartitionedMap, error) {
	n := base.geom.BanksPerRank()
	if reservedBanks < 1 || reservedBanks >= n {
		return nil, fmt.Errorf("addrmap: reservedBanks %d out of range [1,%d)", reservedBanks, n-1)
	}
	return &PartitionedMap{Base: base, ReservedBanks: reservedBanks}, nil
}

// HostCapacity returns the bytes of physical space usable for host-only
// allocations (the bottom of the address space).
func (p *PartitionedMap) HostCapacity() uint64 {
	g := p.Base.geom
	frac := uint64(g.BanksPerRank() - p.ReservedBanks)
	return g.Capacity() / uint64(g.BanksPerRank()) * frac
}

// SharedBase returns the first physical address of the shared region.
func (p *PartitionedMap) SharedBase() uint64 { return p.HostCapacity() }

// bankFieldWidth returns the combined bank-group+bank bit width.
func (p *PartitionedMap) bankFieldWidth() uint {
	return uint(len(p.Base.bg.bits) + len(p.Base.bank.bits))
}

// Decode implements Mapper with the reserved-bank swap. The swap fires
// when either the hash places the access in a reserved bank (relocating
// host data out of the shared banks) or the address MSBs carry a reserved
// pattern (pinning shared-region data into the reserved banks) — the two
// sides of the Fig 4b multiplexer. The four (bank reserved?, MSB
// reserved?) cases land in disjoint quadrants, so the mapping stays
// alias-free.
func (p *PartitionedMap) Decode(pa uint64) dram.Addr {
	a := p.Base.Decode(pa)
	g := p.Base.geom
	nb := g.BanksPerRank()
	thresh := nb - p.ReservedBanks
	flat := a.GlobalBank(g)
	w := p.bankFieldWidth()
	rowMask := (1 << w) - 1
	msb := int(pa>>p.Base.rowMSBLow) & rowMask
	if flat < thresh && msb < thresh {
		return a
	}
	// Swap the bank field with the row MSBs: new bank = MSBs, new row
	// MSBs = initial hashed bank.
	rowShift := uint(len(p.Base.row.bits)) - w
	a.Row = a.Row&^(rowMask<<rowShift) | flat<<rowShift
	a.BankGroup = msb / g.BanksPerGroup
	a.Bank = msb % g.BanksPerGroup
	return a
}

// Geometry implements Mapper.
func (p *PartitionedMap) Geometry() dram.Geometry { return p.Base.geom }

// ColorBits implements Mapper.
func (p *PartitionedMap) ColorBits() []uint { return p.Base.ColorBits() }

// ColumnBits implements Mapper. The reserved-bank swap reads and writes
// only the bank fields and the row MSBs, neither of which a column-only
// bit feeds, so the base mapping's column-only bits keep the contract.
func (p *PartitionedMap) ColumnBits() uint64 { return p.Base.ColumnBits() }

// Fingerprint implements Mapper.
func (p *PartitionedMap) Fingerprint() string {
	return fmt.Sprintf("%s/part%d", p.Base.Fingerprint(), p.ReservedBanks)
}

// IsSharedBank reports whether the rank-local flat bank index belongs to
// the reserved (shared host+NDA) partition.
func (p *PartitionedMap) IsSharedBank(flatBank int) bool {
	return flatBank >= p.Base.geom.BanksPerRank()-p.ReservedBanks
}
