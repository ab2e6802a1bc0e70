package cache

import (
	"strings"
	"testing"
)

// loadedHier returns a hierarchy with misses in flight across two cores
// (live MSHRs, waiters, and l1Pending accounting to corrupt).
func loadedHier(t *testing.T) (*Hierarchy, *fakeBackend) {
	t.Helper()
	h, b := testHier(2)
	for i := uint64(0); i < 4; i++ {
		h.Access(0, 0x10000+i*0x40000, false, 0, func(int64) {})
		h.Access(1, 0x10000+i*0x40000, false, 0, func(int64) {}) // merges into the same MSHR
	}
	if h.PendingMisses() == 0 {
		t.Fatal("no misses in flight")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("healthy hierarchy fails its own invariants: %v", err)
	}
	return h, b
}

// TestHierInvariantsHealthy validates through a full miss lifecycle:
// in flight, after fills, and after re-access hits.
func TestHierInvariantsHealthy(t *testing.T) {
	h, b := loadedHier(t)
	b.completeAll(100)
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("after fills: %v", err)
	}
	if h.PendingMisses() != 0 {
		t.Fatalf("fills left %d misses pending", h.PendingMisses())
	}
	h.Access(0, 0x10000, false, 200, nil)
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("after re-access: %v", err)
	}
}

func TestHierInvariantsDetectCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, h *Hierarchy)
		want    string
	}{
		{"l1-pending-drift", func(t *testing.T, h *Hierarchy) {
			h.l1Pending[0]++ // a leaked L1 MSHR slot
		}, "l1Pending"},
		{"pending-counter", func(t *testing.T, h *Hierarchy) {
			h.pending.n++
		}, "counter says"},
		{"misfiled-mshr", func(t *testing.T, h *Hierarchy) {
			for i, m := range h.pending.vals {
				if m != nil {
					m.block ^= 1 << 40 // entry no longer matches its table key
					_ = i
					return
				}
			}
			t.Skip("no live MSHR")
		}, "filed under"},
		{"waiter-core-range", func(t *testing.T, h *Hierarchy) {
			for _, m := range h.pending.vals {
				if m != nil && len(m.waiters) > 0 {
					m.waiters[0].core = 99
					return
				}
			}
			t.Skip("no waiter to corrupt")
		}, "waiter for core"},
		{"probe-chain-gap", func(t *testing.T, h *Hierarchy) {
			// Empty a slot without bookkeeping: any resident further down
			// the chain that probes across it becomes unreachable.
			tb := h.pending
			for i := range tb.vals {
				if tb.vals[i] == nil {
					continue
				}
				// Only a gap if some other resident's chain crosses i; make
				// one by clearing the home slot of a displaced entry.
				for j := range tb.vals {
					if tb.vals[j] != nil && uint64(j) != tb.home(tb.keys[j]) {
						tb.vals[tb.home(tb.keys[j])] = nil
						return
					}
				}
				t.Skip("no displaced entry to orphan")
			}
			t.Skip("no live entries")
		}, "probe chain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, _ := loadedHier(t)
			tc.corrupt(t, h)
			err := h.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
