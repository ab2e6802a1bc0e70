// Package ndart is the Chopim runtime and programmer API (Section V). It
// manages colored shared-region allocations so NDA operands stay
// rank-aligned, splits API calls into per-rank primitive NDA operations
// with a configurable vector granularity, models the control-register
// launch packets that occupy the host channel, supports blocking and
// asynchronous (macro) launches, and refuses operands whose colors do
// not match.
package ndart

import (
	"fmt"
	"math/bits"
	"sync"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/osmem"
)

// Placement selects how a tensor is laid out.
type Placement int

// Placements mirror the paper's nda::SHARED / nda::PRIVATE.
const (
	// Shared stripes the tensor across all NDAs under one color; the
	// host sees it as ordinary memory.
	Shared Placement = iota
	// Private replicates capacity so each NDA holds a full-length local
	// copy (the paper's a_pvt accumulators).
	Private
)

// Handle tracks completion of one or more launched operations.
type Handle struct {
	pending  int
	doneAt   int64
	children []*Handle
}

// Done reports whether every operation under the handle completed.
func (h *Handle) Done() bool {
	if h.pending > 0 {
		return false
	}
	for _, c := range h.children {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Join combines handles into one that completes when all do.
func Join(hs ...*Handle) *Handle {
	return &Handle{children: hs}
}

// DoneAt returns the DRAM cycle of the final completion (valid once Done).
func (h *Handle) DoneAt() int64 { return h.doneAt }

func (h *Handle) complete(cycle int64) {
	h.pending--
	if cycle > h.doneAt {
		h.doneAt = cycle
	}
}

// Runtime is the Chopim runtime instance.
type Runtime struct {
	os     *osmem.OS
	mapper *addrmap.Map
	geom   dram.Geometry
	eng    *nda.Engine
	mcs    []*mc.Controller
	now    func() int64

	// MaxBlocksPerInstr caps the cache blocks one NDA instruction may
	// touch per operand (the paper's vector width N; Fig 10 sweeps it).
	// Zero means unlimited (one instruction per rank per API call).
	MaxBlocksPerInstr int

	// GuardOps installs the NDA-side bounds checks (protection) on
	// every launched instruction. Off by default: the checks are an
	// assertion harness with per-op setup cost.
	GuardOps bool

	color    osmem.Color
	colorSet bool

	Launches int64

	// decodeCache memoizes indexBlocks results per (base, bytes) span.
	// The decode depends only on the span and the runtime's fixed address
	// mapping, so views over the same blocks (Matrix.RowView on every
	// relaunch) share one immutable layout instead of re-decoding. It is
	// the lock-free first level in front of the process-global
	// globalDecode cache, which additionally shares layouts across
	// runtimes with the same mapping (checkpoint forks, sweep points over
	// one geometry).
	decodeCache map[layoutKey]*vecLayout

	// pendingLaunches tracks control-register writes still in flight in
	// the host controllers, keyed by the request tag; completion launches
	// the recorded blueprints. The registry is what makes launch packets
	// checkpointable: a tag round-trips through a snapshot, a closure
	// does not.
	pendingLaunches map[uint64]*launchRec
	launchID        uint64

	// restored, populated by Restore, holds the rebuilt handles in
	// encoder-table order: a driver that recorded a handle's table index
	// at snapshot time (SnapEncoder.RegisterHandle) recovers the handle
	// through RestoredHandleAt.
	restored []*Handle
}

// layoutKey identifies one decoded span.
type layoutKey struct {
	base  uint64
	bytes uint64
}

// vecLayout is an immutable decoded layout shared between vectors.
// runs[ch][rank] holds that rank's share of the vector in address order,
// as runs of consecutive rank-local block numbers (blockCodec.pack);
// channel and rank are implied by which list holds a run. A colored
// operand's share is whole DRAM rows, so a run usually covers a row and
// a layout costs ~12 bytes per row rather than 4 per block (DESIGN.md
// §2.14).
type vecLayout struct {
	codec blockCodec
	runs  [][][]blockRun
}

// blockRun is the n block numbers start, start+1, ...; first is the
// index of its first block in the rank's share.
type blockRun struct {
	start, n, first uint32
}

// shareLen returns the number of blocks in rank (ch,r)'s share.
func (l *vecLayout) shareLen(ch, r int) int {
	runs := l.runs[ch][r]
	if len(runs) == 0 {
		return 0
	}
	last := runs[len(runs)-1]
	return int(last.first) + int(last.n)
}

// seek returns the index of the run holding share index from, or
// len(runs) past the share's end. The binary search is written out
// because a sort.Search closure escapes and allocates on every launch.
func seek(runs []blockRun, from int) int {
	lo, hi := 0, len(runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(runs[m].first)+int(runs[m].n) <= from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// blockCodec converts between a DRAM address and its rank-local block
// number, (flatBank·Rows + row)·Cols + col. Every geometry field is a
// power of two and the product fits in 32 bits (Geometry.Validate), so
// the number is a bit concatenation and unpacking is shifts and masks.
type blockCodec struct {
	colBits, rowBits, bankBits uint
	colMask, rowMask, bankMask int
}

func newBlockCodec(g dram.Geometry) blockCodec {
	log2 := func(n int) uint { return uint(bits.TrailingZeros(uint(n))) }
	return blockCodec{
		colBits: log2(g.Cols), rowBits: log2(g.Rows), bankBits: log2(g.BanksPerGroup),
		colMask: g.Cols - 1, rowMask: g.Rows - 1, bankMask: g.BanksPerGroup - 1,
	}
}

// pack returns a's rank-local block number.
func (c blockCodec) pack(a dram.Addr) uint32 {
	flat := uint32(a.BankGroup)<<c.bankBits | uint32(a.Bank)
	return (flat<<c.rowBits|uint32(a.Row))<<c.colBits | uint32(a.Col)
}

// unpack returns the address of block number k on rank (ch, r).
func (c blockCodec) unpack(ch, r int, k uint32) dram.Addr {
	flat := int(k >> (c.colBits + c.rowBits))
	return dram.Addr{
		Channel: ch, Rank: r,
		BankGroup: flat >> c.bankBits, Bank: flat & c.bankMask,
		Row: int(k>>c.colBits) & c.rowMask, Col: int(k) & c.colMask,
	}
}

// globalLayoutKey identifies a decoded span across runtimes: the mapper
// fingerprint pins the mapping function, so equal keys imply identical
// decodes.
type globalLayoutKey struct {
	mapper      string
	base, bytes uint64
}

// globalDecode is the process-wide second level of the decode cache.
// The points of a sweep place the same operands on fresh runtimes
// (as do snapshot restores), whose first-level caches start empty;
// without this level every such runtime re-decodes every operand
// block on its first relaunch. Entries are
// immutable, so sharing across concurrently running systems is safe.
var globalDecode = struct {
	sync.Mutex
	m map[globalLayoutKey]*vecLayout
}{m: make(map[globalLayoutKey]*vecLayout)}

// globalDecodeCap bounds the global cache. On overflow the whole map is
// dropped: entries are pure functions of their keys and cheap to
// rebuild, and a plain reset beats tracking recency for a cache that
// overflows only on pathological sweep diversity.
const globalDecodeCap = 4096

// launchRec is one in-flight launch packet's payload.
type launchRec struct {
	ch, r int
	bps   []*opBP
}

// New builds a runtime over the OS, NDA engine, and host controllers.
func New(os *osmem.OS, eng *nda.Engine, mcs []*mc.Controller, now func() int64) *Runtime {
	return &Runtime{
		os: os, mapper: os.Mapper(), geom: os.Mapper().Geometry(),
		eng: eng, mcs: mcs, now: now,
		decodeCache:     make(map[layoutKey]*vecLayout),
		pendingLaunches: make(map[uint64]*launchRec),
	}
}

// NDACount returns the number of rank NDAs in the system.
func (rt *Runtime) NDACount() int { return rt.geom.Channels * rt.geom.Ranks }

// Vector is a float32 vector visible to both host and NDAs.
type Vector struct {
	rt        *Runtime
	base      uint64
	n         int // elements
	bytes     uint64
	placement Placement
	color     osmem.Color

	// layout is each rank's share of the vector as runs of consecutive
	// blocks, decoded once. Decoding every NDA access instead costs 4-9%
	// more host time per simulated cycle (DESIGN.md §2.14).
	layout *vecLayout
}

// Matrix is a row-major float32 matrix; it shares Vector's layout
// machinery through an embedded vector covering rows*cols elements.
type Matrix struct {
	Vector
	Rows, Cols int
}

// NewVector allocates an n-element vector.
func (rt *Runtime) NewVector(n int, p Placement) (*Vector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ndart: vector length %d", n)
	}
	bytes := uint64(n) * 4
	if p == Private {
		bytes *= uint64(rt.NDACount())
	}
	base, color, err := rt.allocColored(bytes)
	if err != nil {
		return nil, err
	}
	v := &Vector{rt: rt, base: base, n: n, bytes: bytes, placement: p, color: color}
	v.indexBlocks()
	return v, nil
}

// NewMatrix allocates a rows x cols row-major matrix.
func (rt *Runtime) NewMatrix(rows, cols int, p Placement) (*Matrix, error) {
	v, err := rt.NewVector(rows*cols, p)
	if err != nil {
		return nil, err
	}
	return &Matrix{Vector: *v, Rows: rows, Cols: cols}, nil
}

// allocColored obtains shared memory under the runtime's operand color,
// adopting the first allocation's color (Section III-A: the runtime
// specifies the same color for all operands).
func (rt *Runtime) allocColored(bytes uint64) (uint64, osmem.Color, error) {
	if !rt.colorSet {
		c, err := rt.os.PickColor(bytes)
		if err != nil {
			return 0, 0, err
		}
		rt.color = c
		rt.colorSet = true
	}
	base, err := rt.os.AllocShared(bytes, rt.color)
	if err != nil {
		return 0, 0, err
	}
	return base, rt.color, nil
}

// Len returns the element count.
func (v *Vector) Len() int { return v.n }

// Base returns the physical base address.
func (v *Vector) Base() uint64 { return v.base }

// Color returns the vector's alignment color.
func (v *Vector) Color() osmem.Color { return v.color }

// indexBlocks precomputes each rank's share of the vector (block numbers
// in processing order). This is the software view of the data layout of
// Section III-A: with color-aligned operands every rank's share covers
// the same element positions across operands.
func (v *Vector) indexBlocks() {
	key := layoutKey{base: v.base, bytes: v.bytes}
	if l, ok := v.rt.decodeCache[key]; ok {
		v.layout = l
		return
	}
	gkey := globalLayoutKey{mapper: v.rt.mapper.Fingerprint(), base: v.base, bytes: v.bytes}
	globalDecode.Lock()
	l, ok := globalDecode.m[gkey]
	globalDecode.Unlock()
	if !ok {
		l = decodeLayout(v.rt.mapper, v.base, v.bytes)
		globalDecode.Lock()
		if len(globalDecode.m) >= globalDecodeCap {
			globalDecode.m = make(map[globalLayoutKey]*vecLayout)
		}
		globalDecode.m[gkey] = l
		globalDecode.Unlock()
	}
	v.layout = l
	v.rt.decodeCache[key] = l
}

// decodeLayout decodes the span [base, base+bytes) block by block,
// appending each block to its rank's runs in address order. It decodes
// only each distinct head, a block with its column-only bits
// (Map.ColumnBits) cleared, and derives the head's blocks from it by
// the ColumnBits contract; with no such bits every block is a head.
func decodeLayout(m *addrmap.Map, base, bytes uint64) *vecLayout {
	g := m.Geometry()
	l := &vecLayout{codec: newBlockCodec(g), runs: make([][][]blockRun, g.Channels)}
	for ch := range l.runs {
		l.runs[ch] = make([][]blockRun, g.Ranks)
	}
	colBits := m.ColumnBits()
	// colDelta[i] is the column XOR of flipping column-only bit i, the
	// same at every address by the ColumnBits contract.
	var colDelta [64]uint32
	col0 := m.Decode(0).Col
	for x := colBits; x != 0; x &= x - 1 {
		i := bits.TrailingZeros64(x)
		colDelta[i] = uint32(m.Decode(1<<i).Col ^ col0)
	}
	// Heads that alternate in address order (one per channel in the
	// default mapping) differ in the lowest non-column bits above the
	// block offset, so a cache indexed by four of them holds them all.
	var slotBits [4]uint
	for i, b := 0, uint(6); i < len(slotBits) && b < 64; b++ {
		if colBits>>b&1 == 0 {
			slotBits[i] = b
			i++
		}
	}
	var heads [1 << len(slotBits)]struct {
		pa    uint64
		ch, r int
		k     uint32 // the head's block number
		set   bool
	}
	nBlocks := (bytes + dram.BlockBytes - 1) / dram.BlockBytes
	for b := uint64(0); b < nBlocks; b++ {
		pa := base + b*dram.BlockBytes
		hpa, slot := pa&^colBits, 0
		for i, sb := range slotBits {
			slot |= int(hpa>>sb&1) << i
		}
		h := &heads[slot]
		if !h.set || h.pa != hpa {
			a := m.Decode(hpa)
			h.pa, h.ch, h.r, h.k, h.set = hpa, a.Channel, a.Rank, l.codec.pack(a), true
		}
		k := h.k
		for x := pa & colBits; x != 0; x &= x - 1 {
			k ^= colDelta[bits.TrailingZeros64(x)]
		}
		runs := l.runs[h.ch][h.r]
		if n := len(runs); n > 0 {
			// k != 0: a run ending at the rank's last block number wraps
			// start+n to 0, and block 0 cannot extend it.
			if last := &runs[n-1]; last.start+last.n == k && k != 0 {
				last.n++
				continue
			}
		}
		l.runs[h.ch][h.r] = append(runs, blockRun{start: k, n: 1, first: uint32(l.shareLen(h.ch, h.r))})
	}
	return l
}

// iterFor yields DRAM addresses for a slice [from, from+count) of the
// rank's share, walking its runs from the one holding from.
func (v *Vector) iterFor(ch, r int, from, count int) nda.Iter {
	runs := v.layout.runs[ch][r]
	// The walk's state is one variable: the closure escapes, and every
	// captured variable it assigns is a heap allocation of its own.
	var w struct {
		i, left int
		k, end  uint32
	}
	w.i, w.left = seek(runs, from), min(count, v.layout.shareLen(ch, r)-from)
	if w.left > 0 {
		w.k = runs[w.i].start + uint32(from-int(runs[w.i].first))
		w.end = runs[w.i].start + runs[w.i].n
	}
	c := v.layout.codec
	return func() (dram.Addr, bool) {
		if w.left <= 0 {
			return dram.Addr{}, false
		}
		if w.k == w.end {
			w.i++
			w.k, w.end = runs[w.i].start, runs[w.i].start+runs[w.i].n
		}
		w.left--
		a := c.unpack(ch, r, w.k)
		w.k++
		return a, true
	}
}

// appendSpans appends to dst the block-number intervals that the slice
// [from, from+count) of rank (ch,r)'s share covers, one per run it
// touches (first unset).
func (v *Vector) appendSpans(dst []blockRun, ch, r, from, count int) []blockRun {
	runs := v.layout.runs[ch][r]
	for i := seek(runs, from); i < len(runs) && count > 0; i++ {
		off := max(from-int(runs[i].first), 0)
		n := min(int(runs[i].n)-off, count)
		dst = append(dst, blockRun{start: runs[i].start + uint32(off), n: uint32(n)})
		count -= n
	}
	return dst
}

// RowView returns a Vector aliasing row i of the matrix (no allocation
// of new memory; block indices are computed for the row's span). Rows
// shorter than a cache block share blocks with neighbours; the view
// covers every block the row touches.
func (m *Matrix) RowView(i int) *Vector {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("ndart: row %d out of range [0,%d)", i, m.Rows))
	}
	rowBytes := uint64(m.Cols) * 4
	start := m.base + uint64(i)*rowBytes
	firstBlock := start / dram.BlockBytes * dram.BlockBytes
	endBlock := (start + rowBytes + dram.BlockBytes - 1) / dram.BlockBytes * dram.BlockBytes
	// The view inherits the parent's color: it belongs to the parent's
	// colored allocation, so alignment with sibling operands holds.
	v := &Vector{
		rt: m.rt, base: firstBlock, n: m.Cols,
		bytes: endBlock - firstBlock, placement: m.placement, color: m.color,
	}
	v.indexBlocks()
	return v
}

// controlAddr returns a DRAM address on the rank for launch packets (the
// control-register region lives on each module).
func (v *Vector) controlAddr(ch, r int) (dram.Addr, bool) {
	runs := v.layout.runs[ch][r]
	if len(runs) == 0 {
		return dram.Addr{}, false
	}
	return v.layout.codec.unpack(ch, r, runs[0].start), true
}
