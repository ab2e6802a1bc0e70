// On-disk codec for HierarchyState. Cache line arrays dominate a
// checkpoint's size (the LLC alone is >100k lines), so they pack into a
// varint-coded binary blob rather than per-line JSON objects: a line is
// flags(1) uvarint(tag) uvarint(lru), so an invalid line costs 3 bytes
// and a typical valid one under ten — the difference between a periodic
// checkpoint write costing milliseconds and costing a noticeable
// fraction of the simulation budget. The line count rides alongside the
// blob, so truncation is detected structurally (and the envelope digest
// covers the bytes anyway). MSHR waiters serialize as (core, slot) —
// the same durable identity the in-memory restore resolves through
// DoneFn.
package cache

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// packLines encodes a level's lines in way order. An invalid way packs
// as tag 0, lru 0, clean — what the packed arrays hold for it.
func packLines(st *cacheState) []byte {
	b := make([]byte, 0, len(st.tags)*3)
	var tmp [2 * binary.MaxVarintLen64]byte
	for i, key := range st.tags {
		var f byte
		var tag uint64
		if key != 0 {
			f |= 1
			tag = key - 1
		}
		if st.dirty[i] {
			f |= 2
		}
		n := binary.PutUvarint(tmp[:], tag)
		n += binary.PutUvarint(tmp[n:], st.lru[i])
		b = append(append(b, f), tmp[:n]...)
	}
	return b
}

// unpackLines decodes count packed lines into st's tag arrays. A line
// flagged invalid restores as an empty way whatever tag it carries.
func unpackLines(b []byte, count int, st *cacheState) error {
	if count < 0 {
		return fmt.Errorf("cache: negative packed line count %d", count)
	}
	st.tags = make([]uint64, count)
	st.lru = make([]uint64, count)
	st.dirty = make([]bool, count)
	for i := 0; i < count; i++ {
		if len(b) == 0 {
			return fmt.Errorf("cache: packed line blob ends at line %d of %d", i, count)
		}
		f := b[0]
		b = b[1:]
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cache: bad tag varint at line %d", i)
		}
		b = b[n:]
		lru, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cache: bad lru varint at line %d", i)
		}
		b = b[n:]
		if f&1 != 0 {
			st.tags[i] = tag + 1
		}
		st.lru[i], st.dirty[i] = lru, f&2 != 0
	}
	if len(b) != 0 {
		return fmt.Errorf("cache: %d trailing bytes after %d packed lines", len(b), count)
	}
	return nil
}

type cacheWire struct {
	NLines int
	Lines  []byte // packLines
	Clock  uint64
	Hits   int64
	Misses int64
}

type waiterWire struct {
	Core, Slot int
	HasDone    bool
}

type mshrWire struct {
	Block    uint64
	Core     int
	Dirty    bool
	Prefetch bool
	Waiters  []waiterWire
}

type strideWire struct {
	LastBlock  uint64
	Stride     int64
	Confidence int
}

type hierarchyWire struct {
	L1, L2     []cacheWire
	LLC        cacheWire
	MSHRs      []mshrWire
	L1Pending  []int
	Prefetch   []strideWire
	Prefetches int64
	Demand     int64
	Ver        uint64
}

func cacheToWire(st *cacheState) cacheWire {
	return cacheWire{NLines: len(st.tags), Lines: packLines(st), Clock: st.clock, Hits: st.hits, Misses: st.misses}
}

func cacheFromWire(w *cacheWire) (cacheState, error) {
	st := cacheState{clock: w.Clock, hits: w.Hits, misses: w.Misses}
	if err := unpackLines(w.Lines, w.NLines, &st); err != nil {
		return cacheState{}, err
	}
	return st, nil
}

// MarshalJSON encodes the snapshot for the durable checkpoint file.
func (st *HierarchyState) MarshalJSON() ([]byte, error) {
	w := hierarchyWire{
		LLC:        cacheToWire(&st.llc),
		L1Pending:  st.l1Pending,
		Prefetches: st.prefetches, Demand: st.demand, Ver: st.ver,
	}
	for i := range st.l1 {
		w.L1 = append(w.L1, cacheToWire(&st.l1[i]))
	}
	for i := range st.l2 {
		w.L2 = append(w.L2, cacheToWire(&st.l2[i]))
	}
	for _, m := range st.mshrs {
		mw := mshrWire{Block: m.block, Core: m.core, Dirty: m.dirty, Prefetch: m.prefetch}
		for _, wt := range m.waiters {
			mw.Waiters = append(mw.Waiters, waiterWire{Core: wt.core, Slot: wt.slot, HasDone: wt.hasDone})
		}
		w.MSHRs = append(w.MSHRs, mw)
	}
	for _, p := range st.prefetch {
		w.Prefetch = append(w.Prefetch, strideWire{LastBlock: p.lastBlock, Stride: p.stride, Confidence: p.confidence})
	}
	return json.Marshal(w)
}

// UnmarshalJSON rebuilds the snapshot written by MarshalJSON.
func (st *HierarchyState) UnmarshalJSON(b []byte) error {
	var w hierarchyWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	var err error
	if st.llc, err = cacheFromWire(&w.LLC); err != nil {
		return err
	}
	st.l1, st.l2 = nil, nil
	for i := range w.L1 {
		cs, err := cacheFromWire(&w.L1[i])
		if err != nil {
			return err
		}
		st.l1 = append(st.l1, cs)
	}
	for i := range w.L2 {
		cs, err := cacheFromWire(&w.L2[i])
		if err != nil {
			return err
		}
		st.l2 = append(st.l2, cs)
	}
	st.mshrs = nil
	for _, mw := range w.MSHRs {
		m := mshrState{block: mw.Block, core: mw.Core, dirty: mw.Dirty, prefetch: mw.Prefetch}
		for _, wt := range mw.Waiters {
			m.waiters = append(m.waiters, waiterState{core: wt.Core, slot: wt.Slot, hasDone: wt.HasDone})
		}
		st.mshrs = append(st.mshrs, m)
	}
	st.l1Pending = w.L1Pending
	st.prefetch = nil
	for _, p := range w.Prefetch {
		st.prefetch = append(st.prefetch, strideState{lastBlock: p.LastBlock, stride: p.Stride, confidence: p.Confidence})
	}
	st.prefetches, st.demand, st.ver = w.Prefetches, w.Demand, w.Ver
	return nil
}
