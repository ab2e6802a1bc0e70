// Package osmem models the OS physical-memory services Chopim relies on
// (Section III-A/C): a buddy allocator over physical frames, coarse
// system-row-aligned allocation, frame coloring that keeps NDA operands
// rank-aligned, and the host-only versus shared address-space split that
// backs bank partitioning.
package osmem

import (
	"fmt"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
)

// Allocator manages a physical address range with a binary-buddy scheme.
// The zero value is not usable; call NewAllocator.
type Allocator struct {
	base      uint64
	size      uint64
	minOrder  uint // log2 of the smallest block (the system-row size)
	free      map[uint][]uint64
	allocated map[uint64]uint // base -> order
}

// NewAllocator manages [base, base+size) with blocks no smaller than
// minBlock bytes. base must be minBlock-aligned and size a multiple of
// minBlock; both must be powers of two times minBlock.
func NewAllocator(base, size uint64, minBlock uint64) (*Allocator, error) {
	if minBlock == 0 || minBlock&(minBlock-1) != 0 {
		return nil, fmt.Errorf("osmem: minBlock %d not a power of two", minBlock)
	}
	if base%minBlock != 0 || size%minBlock != 0 || size == 0 {
		return nil, fmt.Errorf("osmem: range %#x+%#x not aligned to %#x", base, size, minBlock)
	}
	a := &Allocator{
		base: base, size: size, minOrder: ulog2(minBlock),
		free:      make(map[uint][]uint64),
		allocated: make(map[uint64]uint),
	}
	// Seed the free lists with maximal aligned blocks.
	off := base
	remaining := size
	for remaining > 0 {
		o := maxOrderAt(off, remaining)
		a.free[o] = append(a.free[o], off)
		off += 1 << o
		remaining -= 1 << o
	}
	return a, nil
}

func ulog2(v uint64) uint {
	var k uint
	for 1<<(k+1) <= v {
		k++
	}
	return k
}

// maxOrderAt returns the largest power-of-two block order that is both
// aligned at off and no larger than remaining.
func maxOrderAt(off, remaining uint64) uint {
	o := ulog2(remaining)
	if off != 0 {
		// Alignment constraint: low set bit of off.
		align := ulog2(off & -off)
		if align < o {
			o = align
		}
	}
	return o
}

// Alloc returns a naturally-aligned block of at least n bytes.
func (a *Allocator) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("osmem: zero-size allocation")
	}
	order := a.minOrder
	for uint64(1)<<order < n {
		order++
	}
	o := order
	for ; ; o++ {
		if o > 63 {
			return 0, fmt.Errorf("osmem: out of memory for %d bytes", n)
		}
		if len(a.free[o]) > 0 {
			break
		}
	}
	// Split down to the requested order.
	blk := a.free[o][len(a.free[o])-1]
	a.free[o] = a.free[o][:len(a.free[o])-1]
	for o > order {
		o--
		a.free[o] = append(a.free[o], blk+(1<<o))
	}
	a.allocated[blk] = order
	return blk, nil
}

// Free returns a block obtained from Alloc, merging buddies.
func (a *Allocator) Free(base uint64) error {
	order, ok := a.allocated[base]
	if !ok {
		return fmt.Errorf("osmem: free of unallocated address %#x", base)
	}
	delete(a.allocated, base)
	for {
		buddy := base ^ (1 << order)
		merged := false
		fl := a.free[order]
		for i, b := range fl {
			if b == buddy {
				a.free[order] = append(fl[:i], fl[i+1:]...)
				if buddy < base {
					base = buddy
				}
				order++
				merged = true
				break
			}
		}
		if !merged {
			break
		}
	}
	a.free[order] = append(a.free[order], base)
	return nil
}

// FreeBytes reports the total unallocated capacity.
func (a *Allocator) FreeBytes() uint64 {
	var total uint64
	for o, blocks := range a.free {
		total += uint64(len(blocks)) << o
	}
	return total
}

// OS bundles the services the Chopim runtime needs: a host-only
// allocator, a shared-region allocator (when bank partitioning is on),
// and color-constrained allocation for NDA operand alignment.
type OS struct {
	mapper addrmap.Mapper
	geom   dram.Geometry

	host   *Allocator
	shared *Allocator // nil when not partitioned: shared == host space

	sysRow    uint64
	colorMask uint64
}

// NewOS builds the OS layer. When mapper is a *addrmap.PartitionedMap,
// the physical space is split into host-only and shared regions at the
// partition boundary; otherwise a single region serves both and the top
// quarter of memory is set aside as the "shared color pool" so host and
// NDA traffic meet in the same banks (the paper's Shared configuration).
func NewOS(mapper addrmap.Mapper) (*OS, error) {
	g := mapper.Geometry()
	o := &OS{mapper: mapper, geom: g, sysRow: uint64(g.SystemRowBytes())}
	for _, b := range mapper.ColorBits() {
		o.colorMask |= 1 << b
	}
	cap := g.Capacity()
	var err error
	if p, ok := mapper.(*addrmap.PartitionedMap); ok {
		if o.host, err = NewAllocator(0, p.HostCapacity(), o.sysRow); err != nil {
			return nil, err
		}
		if o.shared, err = NewAllocator(p.SharedBase(), cap-p.SharedBase(), o.sysRow); err != nil {
			return nil, err
		}
		return o, nil
	}
	// Unpartitioned: NDA-shared data comes from the top quarter of the
	// same space; host banks and shared banks fully overlap.
	split := cap / 4 * 3
	if o.host, err = NewAllocator(0, split, o.sysRow); err != nil {
		return nil, err
	}
	if o.shared, err = NewAllocator(split, cap-split, o.sysRow); err != nil {
		return nil, err
	}
	return o, nil
}

// SystemRowBytes returns the coarse allocation granularity.
func (o *OS) SystemRowBytes() uint64 { return o.sysRow }

// AllocHost grabs host-only memory (benchmark footprints).
func (o *OS) AllocHost(n uint64) (uint64, error) { return o.host.Alloc(n) }

// Color identifies a rank-alignment equivalence class of system rows.
type Color uint64

// ColorOf returns the color of a system-row-aligned physical address.
func (o *OS) ColorOf(pa uint64) Color { return Color(pa & o.colorMask) }

// ColorPeriod returns the address stride at which colors repeat: two
// shared allocations whose bases are congruent modulo the color period
// (equal colors) interleave identically at every common offset.
func (o *OS) ColorPeriod() uint64 {
	var max uint
	for _, b := range o.mapper.ColorBits() {
		if b > max {
			max = b
		}
	}
	return 1 << (max + 1)
}

// AllocShared allocates n contiguous bytes from the shared region whose
// base has the given color (page coloring, Section III-A). All
// allocations of equal color interleave identically across
// channels/ranks/banks at every common offset, keeping NDA operands
// aligned without copies. Note that a buddy block's natural alignment
// constrains which colors its base can take: callers should obtain a
// feasible color from PickColor(n) for the largest operand first and
// reuse it.
func (o *OS) AllocShared(n uint64, color Color) (uint64, error) {
	if n < o.sysRow {
		n = o.sysRow
	}
	// Grab candidate blocks until one's base matches the color; rejects
	// are held aside and returned. A real OS indexes free lists by
	// color; this keeps the buddy core simple.
	var reject []uint64
	defer func() {
		for _, r := range reject {
			_ = o.shared.Free(r)
		}
	}()
	for attempts := 0; attempts < 1<<16; attempts++ {
		blk, err := o.shared.Alloc(n)
		if err != nil {
			return 0, fmt.Errorf("osmem: shared region exhausted for color %#x: %w", uint64(color), err)
		}
		if o.ColorOf(blk) == color {
			return blk, nil
		}
		reject = append(reject, blk)
	}
	return 0, fmt.Errorf("osmem: no block with color %#x for %d bytes", uint64(color), n)
}

// PickColor returns a feasible color for an allocation of n bytes by
// probing the allocator, so subsequent AllocShared calls of size <= n
// can succeed with it.
func (o *OS) PickColor(n uint64) (Color, error) {
	if n < o.sysRow {
		n = o.sysRow
	}
	blk, err := o.shared.Alloc(n)
	if err != nil {
		return 0, err
	}
	c := o.ColorOf(blk)
	_ = o.shared.Free(blk)
	return c, nil
}

// FreeShared releases a shared allocation.
func (o *OS) FreeShared(base uint64) error { return o.shared.Free(base) }

// Mapper exposes the address mapping in use.
func (o *OS) Mapper() addrmap.Mapper { return o.mapper }
