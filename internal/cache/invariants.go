package cache

import (
	"fmt"

	"chopim/internal/dram"
)

// Opt-in conservation checks behind sim's Config.CheckInvariants.
// Cold-path only: runs at commit barriers when armed, never during
// normal access processing, so scratch allocation is fine.

// CheckSpan rejects a memory of capacity bytes whose largest block does
// not fit some level's 31-bit way key (see Cache): such a geometry
// would alias blocks in the packed tag store.
func (cfg HierarchyConfig) CheckSpan(capacity uint64) error {
	last := (capacity - 1) / dram.BlockBytes
	for _, lvl := range []struct {
		name string
		c    Config
	}{{"L1", cfg.L1}, {"L2", cfg.L2}, {"LLC", cfg.LLC}} {
		if max := lvl.c.MaxBlock(); last > max {
			return fmt.Errorf("cache: %s: a %d-byte memory has blocks up to %#x, past the 31-bit key range (largest block %#x)",
				lvl.name, capacity, last, max)
		}
	}
	return nil
}

// PendingMisses returns the number of LLC misses currently in flight
// (occupied MSHRs).
func (h *Hierarchy) PendingMisses() int { return h.pending.len() }

// CheckInvariants validates MSHR conservation across the hierarchy: the
// pending table's structure (probe chains intact, occupancy matching
// its counter), every MSHR filed under its own block, occupancy within
// the LLC MSHR bound, and the per-core L1 pending counters equal to the
// per-core waiter tallies across all in-flight misses (every waiter
// holds exactly one l1Pending slot). Returns the first violation, nil
// when consistent.
func (h *Hierarchy) CheckInvariants() error {
	if err := h.pending.check(); err != nil {
		return err
	}
	if n := h.pending.len(); n > h.cfg.LLC.MSHRs {
		return fmt.Errorf("cache: %d MSHRs in flight exceeds LLC bound %d", n, h.cfg.LLC.MSHRs)
	}
	perCore := make([]int, h.cfg.Cores)
	var walkErr error
	h.pending.each(func(block uint64, m *mshr) bool {
		if m.block != block {
			walkErr = fmt.Errorf("cache: MSHR for block %#x filed under table key %#x", m.block, block)
			return false
		}
		if len(m.waiters) > h.maxWaiters {
			walkErr = fmt.Errorf("cache: MSHR for block %#x holds %d waiters, bound is %d", block, len(m.waiters), h.maxWaiters)
			return false
		}
		for _, w := range m.waiters {
			if w.core < 0 || w.core >= h.cfg.Cores {
				walkErr = fmt.Errorf("cache: MSHR for block %#x holds waiter for core %d of %d", block, w.core, h.cfg.Cores)
				return false
			}
			perCore[w.core]++
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	for core, n := range perCore {
		if h.l1Pending[core] != n {
			return fmt.Errorf("cache: core %d l1Pending=%d but %d waiters are in flight", core, h.l1Pending[core], n)
		}
	}
	for core, n := range h.l1Pending {
		if n < 0 || n > h.cfg.L1.MSHRs {
			return fmt.Errorf("cache: core %d l1Pending=%d outside [0,%d]", core, n, h.cfg.L1.MSHRs)
		}
	}
	return nil
}

// each visits every live entry until fn returns false.
func (t *pendingTable) each(fn func(block uint64, m *mshr) bool) {
	for i, m := range t.vals {
		if m == nil {
			continue
		}
		if !fn(t.keys[i], m) {
			return
		}
	}
}

// check validates the table's open-addressing structure: the occupancy
// counter against the live slots, and every resident's probe chain —
// home slot through resident slot — free of empty gaps (the property
// backward-shift deletion maintains and get() relies on to terminate).
func (t *pendingTable) check() error {
	live := 0
	for i := range t.vals {
		if t.vals[i] == nil {
			continue
		}
		live++
		for j := t.home(t.keys[i]); j != uint64(i); j = (j + 1) & t.mask {
			if t.vals[j] == nil {
				return fmt.Errorf("cache: pending table: block %#x at slot %d unreachable (empty slot %d on its probe chain)",
					t.keys[i], i, j)
			}
		}
	}
	if live != t.n {
		return fmt.Errorf("cache: pending table holds %d entries, counter says %d", live, t.n)
	}
	return nil
}
