package cache

// cacheState is a deep copy of one level's mutable state: the packed
// way words and the per-set recency words, verbatim (see Cache), and
// the counters.
type cacheState struct {
	Lines  []uint32
	Order  []uint64
	Hits   int64
	Misses int64
}

func (c *Cache) snapshot() cacheState {
	return cacheState{
		Lines:  append([]uint32(nil), c.lines...),
		Order:  append([]uint64(nil), c.order...),
		Hits:   c.Hits,
		Misses: c.Misses,
	}
}

func (c *Cache) restore(st cacheState) {
	if len(st.Lines) != len(c.lines) || len(st.Order) != len(c.order) {
		panic("cache: restore onto a cache with different geometry")
	}
	copy(c.lines, st.Lines)
	copy(c.order, st.Order)
	c.Hits, c.Misses = st.Hits, st.Misses
}

// waiterState identifies one MSHR waiter by (core, ROB slot); restore
// rewires it to the core's pooled completion closure.
type waiterState struct {
	Core, Slot int
	HasDone    bool
}

// mshrState is one in-flight LLC miss.
type mshrState struct {
	Block   uint64
	Core    int
	Dirty   bool
	Waiters []waiterState
}

// HierarchyState is a deep copy of the hierarchy's mutable state: every
// cache level's contents, the in-flight MSHR set with its waiters,
// per-core L1 MSHR occupancy, and the demand-miss counter.
// The stall marks and LLC set versions are not carried: restore clears
// the marks, so each probe-stalled core re-probes once and re-arms its
// own (see StillStalls).
// Fill callbacks are not serialized — restored MSHRs get fresh pool
// nodes whose closures are equivalent, and controller-queue restore
// reattaches reads to them through FillFor; an MSHR waiter's durable
// name is its (core, ROB slot). The exported fields are also the
// durable checkpoint encoding.
type HierarchyState struct {
	L1, L2    []cacheState
	LLC       cacheState
	MSHRs     []mshrState
	L1Pending []int
	Demand    int64
}

// Snapshot captures the hierarchy's full mutable state.
func (h *Hierarchy) Snapshot() *HierarchyState {
	st := &HierarchyState{
		LLC:       h.llc.snapshot(),
		L1Pending: append([]int(nil), h.l1Pending...),
		Demand:    h.Demand,
	}
	for i := range h.l1 {
		st.L1 = append(st.L1, h.l1[i].snapshot())
		st.L2 = append(st.L2, h.l2[i].snapshot())
	}
	for i := range h.pending.vals {
		m := h.pending.vals[i]
		if m == nil {
			continue
		}
		ms := mshrState{Block: m.block, Core: m.core, Dirty: m.dirty}
		for _, w := range m.waiters {
			ms.Waiters = append(ms.Waiters, waiterState{Core: w.core, Slot: w.slot, HasDone: w.done != nil})
		}
		st.MSHRs = append(st.MSHRs, ms)
	}
	return st
}

// Restore overwrites the hierarchy's state with the snapshot. The
// hierarchy must have been built with the same config. done resolves a
// waiter's (core, ROB slot) back to its completion closure (the sim
// package passes the cores' DoneFn accessors).
func (h *Hierarchy) Restore(st *HierarchyState, done func(core, slot int) func(int64)) {
	if len(st.L1) != len(h.l1) {
		panic("cache: restore onto a hierarchy with different core count")
	}
	for i := range h.l1 {
		h.l1[i].restore(st.L1[i])
		h.l2[i].restore(st.L2[i])
	}
	h.llc.restore(st.LLC)
	// Drop any live MSHRs back to the pool and rebuild the saved set.
	for i := range h.pending.vals {
		if m := h.pending.vals[i]; m != nil {
			h.freeMSHR(m)
			h.pending.keys[i], h.pending.vals[i] = 0, nil
		}
	}
	h.pending.n = 0
	for _, ms := range st.MSHRs {
		m := h.allocMSHR(ms.Core, ms.Block, ms.Dirty)
		for _, w := range ms.Waiters {
			var fn func(int64)
			if w.HasDone && done != nil {
				fn = done(w.Core, w.Slot)
			}
			m.waiters = append(m.waiters, waiter{core: w.Core, slot: w.Slot, done: fn})
		}
		h.pending.put(ms.Block, m)
	}
	copy(h.l1Pending, st.L1Pending)
	h.Demand = st.Demand
	clear(h.stalls) // no stall is vouched for until its core re-probes
}

// FillFor returns the fill callback of the in-flight miss covering
// addr. Controller-queue restore uses it to reattach restored read
// requests to their MSHRs (every host read in a controller queue
// belongs to exactly one pending LLC miss).
func (h *Hierarchy) FillFor(addr uint64) func(dramDone int64) {
	m := h.pending.get(h.block(addr))
	if m == nil {
		panic("cache: FillFor with no pending miss for the block")
	}
	return m.fill
}
