package cache

// cacheState is a deep copy of one level's mutable state: the packed
// way words (see Cache) and, per way, its recency rank within its set.
// A valid way's lru is 1 for the set's least recently touched valid way
// and counts up; an invalid way's is 0. restore reads only the order of
// the lru values within a set, so a decoded checkpoint may carry any
// values in that order (older encodings stored global last-touch
// stamps). The MRU filter is not captured: it is a pure acceleration
// of the way scan (the filtered path performs identical state updates),
// so restore simply empties it.
type cacheState struct {
	lines  []uint32
	lru    []uint32
	hits   int64
	misses int64
}

func (c *Cache) snapshot() cacheState {
	st := cacheState{
		lines:  append([]uint32(nil), c.lines...),
		lru:    make([]uint32, len(c.lines)),
		hits:   c.Hits,
		misses: c.Misses,
	}
	for set, o := range c.order {
		base := set * c.ways
		var r uint32
		for k := 0; k < c.ways; k, o = k+1, o>>4 {
			if w := base + int(o&0xf); st.lines[w] != 0 {
				r++
				st.lru[w] = r
			}
		}
	}
	return st
}

func (c *Cache) restore(st cacheState) {
	if len(st.lines) != len(c.lines) || len(st.lru) != len(c.lines) {
		panic("cache: restore onto a cache with different geometry")
	}
	copy(c.lines, st.lines)
	for set := range c.order {
		base := set * c.ways
		c.order[set] = recencyOrder(st.lines[base:base+c.ways], st.lru[base:base+c.ways])
	}
	c.Hits, c.Misses = st.hits, st.misses
	c.lastKey = 0 // MRU filter revalidates on the next lookup
}

// recencyOrder builds a set's order word from its ways' lru values:
// invalid ways first, then valid ways by ascending lru, ties in way
// order. A way's position is the number of ways whose sort key is
// below its own; the way index in the key's low bits makes keys unique.
func recencyOrder(lines, lru []uint32) uint64 {
	key := func(w int) uint64 {
		if lines[w] == 0 {
			return uint64(w)
		}
		return 1<<36 | uint64(lru[w])<<4 | uint64(w)
	}
	var o uint64
	for w := range lines {
		pos := 0
		for v := range lines {
			if key(v) < key(w) {
				pos++
			}
		}
		o |= uint64(w) << (4 * pos)
	}
	return o
}

// waiterState identifies one MSHR waiter by (core, ROB slot); restore
// rewires it to the core's pooled completion closure.
type waiterState struct {
	Core, Slot int
	HasDone    bool
}

// mshrState is one in-flight LLC miss.
type mshrState struct {
	Block    uint64
	Core     int
	Dirty    bool
	Prefetch bool
	Waiters  []waiterState
}

// HierarchyState is a deep copy of the hierarchy's mutable state: every
// cache level's contents, the in-flight MSHR set with its waiters,
// per-core L1 MSHR occupancy, prefetch stride detectors, and counters.
// The stall marks and LLC set versions are not carried: restore clears
// the marks, so each probe-stalled core re-probes once and re-arms its
// own (see StillStalls).
// Fill callbacks are not serialized — restored MSHRs get fresh pool
// nodes whose closures are equivalent, and controller-queue restore
// reattaches reads to them through FillFor; an MSHR waiter's durable
// name is its (core, ROB slot). The exported fields are also the
// durable checkpoint encoding, except that the cache levels pack into
// varint line blobs (see MarshalJSON).
type HierarchyState struct {
	L1, L2     []cacheState `json:"-"` // packed by MarshalJSON
	LLC        cacheState   `json:"-"`
	MSHRs      []mshrState
	L1Pending  []int
	Prefetch   []strideState
	Prefetches int64
	Demand     int64
}

// Snapshot captures the hierarchy's full mutable state.
func (h *Hierarchy) Snapshot() *HierarchyState {
	st := &HierarchyState{
		LLC:        h.llc.snapshot(),
		L1Pending:  append([]int(nil), h.l1Pending...),
		Prefetch:   append([]strideState(nil), h.prefetch...),
		Prefetches: h.Prefetches,
		Demand:     h.Demand,
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
		ms := mshrState{Block: m.block, Core: m.core, Dirty: m.dirty, Prefetch: m.prefetch}
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
		m := h.allocMSHR(ms.Core, ms.Block, ms.Dirty, ms.Prefetch)
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
	copy(h.prefetch, st.Prefetch)
	h.Prefetches, h.Demand = st.Prefetches, st.Demand
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
