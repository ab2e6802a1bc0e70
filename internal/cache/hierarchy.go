package cache

import "chopim/internal/dram"

// Result classifies one access attempt against the hierarchy.
type Result int

const (
	// Hit: the access completes at the latency returned by Access.
	Hit Result = iota
	// Queued: the access missed to memory; the done callback fires later.
	Queued
	// Stall: no MSHR or controller queue space; the caller must retry.
	Stall
)

// Backend is the memory system below the LLC. It operates in DRAM cycles.
type Backend interface {
	// EnqueueRead submits a block read; done is called with the DRAM
	// cycle at which data is available. Returns false if full.
	EnqueueRead(addr uint64, done func(dramDone int64)) bool
	// EnqueueWrite submits a block writeback. It is never refused: the
	// controller's overflow ring absorbs writebacks beyond its write
	// queue.
	EnqueueWrite(addr uint64)
	// ReadFull reports whether EnqueueRead(addr, ...) would return false
	// now, without side effects.
	ReadFull(addr uint64) bool
}

// Clock converts between DRAM and CPU cycles.
type Clock interface {
	CPUOfDRAM(dram int64) int64
}

// HierarchyConfig configures the full cache hierarchy.
type HierarchyConfig struct {
	L1, L2, LLC Config
	Cores       int
}

// DefaultHierarchyConfig returns the paper's Table II cache setup.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1:    Config{SizeBytes: 32 << 10, Ways: 8, LatencyCPU: 4, MSHRs: 12},
		L2:    Config{SizeBytes: 256 << 10, Ways: 4, LatencyCPU: 12, MSHRs: 12},
		LLC:   Config{SizeBytes: 8 << 20, Ways: 16, LatencyCPU: 38, MSHRs: 48},
	}
}

// mshr tracks one outstanding LLC miss and its waiting cores. Nodes are
// pooled on a free list: each carries a fill callback created once (it
// captures only the node), so the steady-state miss path allocates
// nothing.
type mshr struct {
	waiters []waiter
	core    int
	dirty   bool // a store merged into the in-flight miss
	block   uint64
	fill    func(dramDone int64)
	next    *mshr // free-list link
}

type waiter struct {
	core int
	slot int // the waiting core's ROB slot (snapshot identity for done)
	done func(cpuDone int64)
}

// Hierarchy composes per-core L1/L2 caches and the shared LLC.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	llc *Cache

	backend Backend
	clock   Clock

	pending    *pendingTable // LLC MSHRs keyed by block (fixed-capacity)
	mshrFree   *mshr         // pooled MSHR nodes
	maxWaiters int           // waiter-slice capacity bound (see NewHierarchy)
	l1Pending  []int         // outstanding misses per core (L1 MSHR limit)
	Demand     int64

	// stalls holds each core's stall mark: the access that last
	// returned Stall and the version of its LLC set then (see
	// StillStalls). llcVer counts insertions per LLC set. Only the LLC
	// is versioned: a block enters an L1 or L2 only by a fill that
	// inserts it into the LLC first.
	stalls []stallMark
	llcVer []uint32
}

// stallMark records one core's stalled access and the insert version
// of the block's LLC set at the stall (see StillStalls).
type stallMark struct {
	addr  uint64
	block uint64
	ver   uint32
	write bool
	armed bool
}

// allocMSHR pops a pooled MSHR node (or grows the pool).
func (h *Hierarchy) allocMSHR(core int, block uint64, dirty bool) *mshr {
	m := h.mshrFree
	if m != nil {
		h.mshrFree = m.next
		m.next = nil
	} else {
		m = h.newMSHR()
	}
	m.core, m.block, m.dirty = core, block, dirty
	return m
}

// newMSHR builds one pool node with its fill callback and a waiter
// slice pre-sized to the config bound, so the node never allocates
// again: waiters per MSHR are capped by the per-core L1 MSHR budgets
// (every waiter holds one l1Pending slot).
func (h *Hierarchy) newMSHR() *mshr {
	m := &mshr{waiters: make([]waiter, 0, h.maxWaiters)}
	m.fill = func(dramDone int64) { h.onFill(m, dramDone) }
	return m
}

// freeMSHR returns a node to the pool, dropping waiter references.
func (h *Hierarchy) freeMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = waiter{}
	}
	m.waiters = m.waiters[:0]
	m.next = h.mshrFree
	h.mshrFree = m
}

// NewHierarchy builds the hierarchy over the given backend. The MSHR
// machinery is pre-sized to its config bounds — the pending map to the
// LLC MSHR count its occupancy can never exceed, the node pool to that
// same count, and each node's waiter slice to the per-core L1 MSHR
// budgets — so the miss path performs no late growth allocations even
// under slow-warming random footprints (the stall-heavy zero-allocs
// contract).
func NewHierarchy(cfg HierarchyConfig, backend Backend, clock Clock) *Hierarchy {
	h := &Hierarchy{
		cfg:        cfg,
		llc:        New(cfg.LLC),
		backend:    backend,
		clock:      clock,
		pending:    newPendingTable(cfg.LLC.MSHRs),
		maxWaiters: cfg.Cores * cfg.L1.MSHRs,
		l1Pending:  make([]int, cfg.Cores),
		stalls:     make([]stallMark, cfg.Cores),
		llcVer:     make([]uint32, cfg.LLC.Sets()),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, New(cfg.L1))
		h.l2 = append(h.l2, New(cfg.L2))
	}
	for i := 0; i < cfg.LLC.MSHRs; i++ {
		m := h.newMSHR()
		m.next = h.mshrFree
		h.mshrFree = m
	}
	return h
}

// LLC returns the shared last-level cache (for tests and statistics).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// block converts a byte address to a block index.
func (h *Hierarchy) block(addr uint64) uint64 { return addr / dram.BlockBytes }

// Access issues one load or store from core. For Hit, the returned
// latency is the CPU cycles until completion. For Queued, done is invoked
// with the completing CPU cycle. Stores that miss allocate (fetch) the
// line but report Hit: the store buffer hides their latency from the
// core, while the fetch still generates memory traffic.
//
// Stall contract (the core-skip safety argument, DESIGN.md §2.4): an
// Access that returns Stall leaves the hierarchy bit-identical to the
// state it found — the three miss lookups it performed are rolled back
// (stall below), the MSHR pool round-trips through its LIFO free list,
// and no queue, counter, or replacement state changes. It only records
// the core's stall mark, so StillStalls can tell, without probing,
// when a retry would stall again and may be skipped.
func (h *Hierarchy) Access(core int, addr uint64, write bool, slot int, done func(cpuDone int64)) (Result, int64) {
	b := h.block(addr)
	l1, l2 := h.l1[core], h.l2[core]

	if l1.Lookup(b, write) {
		return Hit, h.cfg.L1.LatencyCPU
	}
	if l2.Lookup(b, write) {
		h.fill(core, b, write, l1, nil)
		return Hit, h.cfg.L2.LatencyCPU
	}

	if h.llc.Lookup(b, write) {
		h.fill(core, b, write, l1, l2)
		return Hit, h.cfg.LLC.LatencyCPU
	}

	// LLC miss. Merge into an existing MSHR if one covers the block.
	if m := h.pending.get(b); m != nil {
		if write {
			// The eventual fill will be marked dirty by this store.
			m.dirty = true
			return Hit, h.cfg.LLC.LatencyCPU
		}
		if h.l1Pending[core] >= h.cfg.L1.MSHRs {
			return h.stall(core, addr, b, write)
		}
		h.l1Pending[core]++
		m.waiters = append(m.waiters, waiter{core: core, slot: slot, done: done})
		return Queued, 0
	}

	if h.pending.len() >= h.cfg.LLC.MSHRs {
		return h.stall(core, addr, b, write)
	}
	if !write && h.l1Pending[core] >= h.cfg.L1.MSHRs {
		return h.stall(core, addr, b, write)
	}

	m := h.allocMSHR(core, b, write)
	if !write {
		h.l1Pending[core]++
		m.waiters = append(m.waiters, waiter{core: core, slot: slot, done: done})
	}
	if !h.backend.EnqueueRead(addr, m.fill) {
		if !write {
			h.l1Pending[core]--
		}
		h.freeMSHR(m)
		return h.stall(core, addr, b, write)
	}
	h.pending.put(b, m)
	h.Demand++
	if write {
		return Hit, h.cfg.L1.LatencyCPU
	}
	return Queued, 0
}

// stall rolls back the three miss lookups a stalling Access performed
// (every Stall path misses L1, L2, and the LLC first), records the
// core's stall mark, and reports Stall. See the Stall contract on
// Access.
func (h *Hierarchy) stall(core int, addr, b uint64, write bool) (Result, int64) {
	h.l1[core].unMiss()
	h.l2[core].unMiss()
	h.llc.unMiss()
	h.stalls[core] = stallMark{addr: addr, block: b, ver: h.llcVer[h.llc.setOf(b)], write: write, armed: true}
	return Stall, 0
}

// StillStalls reports whether the core's last stalled access, retried
// now, would stall again: a true answer means Access would return
// Stall and change nothing, so a blocked core may skip the retry. It
// re-derives Access's stall decision in Access's own order. The block
// is still absent from the core's L1 and L2 and from the LLC while its
// LLC set has had no insertion since the stall (a block enters an L1 or
// L2 only through a fill that inserts it into the LLC first;
// Invalidate only removes). The rest is live state: the MSHR covering
// the block (merge path), the MSHR table, the core's L1 MSHR budget,
// and the backend's read queue. A false answer only asks for a real
// re-probe, which re-arms the mark.
func (h *Hierarchy) StillStalls(core int) bool {
	m := &h.stalls[core]
	if !m.armed || h.llcVer[h.llc.setOf(m.block)] != m.ver {
		return false
	}
	busy := h.l1Pending[core] >= h.cfg.L1.MSHRs
	if h.pending.get(m.block) != nil {
		return !m.write && busy
	}
	if h.pending.len() >= h.cfg.LLC.MSHRs || !m.write && busy {
		return true
	}
	return h.backend.ReadFull(m.addr)
}

// onFill handles data arriving from memory for the MSHR's block at DRAM
// cycle dramDone. The fill propagates through every level; waiters
// complete at the equivalent CPU cycle plus the LLC-to-core fill
// latency, releasing their L1 MSHR.
func (h *Hierarchy) onFill(m *mshr, dramDone int64) {
	h.pending.del(m.block)
	h.insertAll(m.core, m.block, m.dirty)
	cpuDone := h.clock.CPUOfDRAM(dramDone) + h.cfg.LLC.LatencyCPU
	for _, w := range m.waiters {
		h.l1Pending[w.core]--
		if w.done != nil {
			w.done(cpuDone)
		}
	}
	h.freeMSHR(m)
}

// fill propagates a block into upper levels after a lower-level hit:
// into l2 unless it is nil (an L2 hit), then into l1, cascading the
// castouts.
func (h *Hierarchy) fill(core int, b uint64, dirty bool, l1, l2 *Cache) {
	if l2 != nil {
		if v, vd := l2.Insert(b, false); vd {
			h.insertLLC(v, true)
		}
	}
	if v, vd := l1.Insert(b, dirty); vd {
		if ev, evd := h.l2[core].Insert(v, true); evd {
			h.insertLLC(ev, true)
		}
	}
}

// insertAll fills a block into LLC, L2, and L1, cascading evictions.
func (h *Hierarchy) insertAll(core int, b uint64, dirty bool) {
	h.insertLLC(b, dirty)
	h.fill(core, b, dirty, h.l1[core], h.l2[core])
}

// insertLLC fills b into the LLC, advancing its set's insert version
// (see StillStalls), and writes back a dirty victim.
func (h *Hierarchy) insertLLC(b uint64, dirty bool) {
	h.llcVer[h.llc.setOf(b)]++
	if v, vd := h.llc.Insert(b, dirty); vd {
		h.writeback(v)
	}
}

// writeback sends a dirty LLC victim to memory. Write-queue overflow is
// absorbed by the backend (modeling an unbounded eviction buffer that the
// controller drains under its watermark policy), so it cannot fail.
func (h *Hierarchy) writeback(block uint64) {
	h.backend.EnqueueWrite(block * dram.BlockBytes)
}
