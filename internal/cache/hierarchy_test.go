package cache

import "testing"

// fakeBackend records requests and completes reads on demand.
type fakeBackend struct {
	reads  []uint64
	writes []uint64
	dones  []func(int64)
	full   bool
}

func (f *fakeBackend) EnqueueRead(addr uint64, done func(int64)) bool {
	if f.full {
		return false
	}
	f.reads = append(f.reads, addr)
	f.dones = append(f.dones, done)
	return true
}

func (f *fakeBackend) EnqueueWrite(addr uint64) bool {
	f.writes = append(f.writes, addr)
	return true
}

func (f *fakeBackend) completeAll(at int64) {
	for _, d := range f.dones {
		d(at)
	}
	f.dones = nil
}

type fixedClock struct{}

func (fixedClock) CPUOfDRAM(d int64) int64 { return d * 10 / 3 }

func testHier(cores int) (*Hierarchy, *fakeBackend) {
	b := &fakeBackend{}
	cfg := DefaultHierarchyConfig(cores)
	cfg.PrefetchDegree = 0 // deterministic traffic in unit tests
	return NewHierarchy(cfg, b, fixedClock{}), b
}

func TestMissGoesToMemoryThenHits(t *testing.T) {
	h, b := testHier(1)
	var completed int64 = -1
	res, _ := h.Access(0, 0x1000, false, 0, func(c int64) { completed = c })
	if res != Queued {
		t.Fatalf("first access = %v, want Queued", res)
	}
	if len(b.reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(b.reads))
	}
	b.completeAll(300)
	if completed != 300*10/3+h.cfg.LLC.LatencyCPU {
		t.Errorf("completion cycle = %d", completed)
	}
	res, lat := h.Access(0, 0x1000, false, 0, nil)
	if res != Hit || lat != h.cfg.L1.LatencyCPU {
		t.Errorf("second access = %v/%d, want L1 hit", res, lat)
	}
}

func TestMSHRMerging(t *testing.T) {
	h, b := testHier(2)
	n := 0
	h.Access(0, 0x2000, false, 0, func(int64) { n++ })
	h.Access(1, 0x2000, false, 0, func(int64) { n++ })
	if len(b.reads) != 1 {
		t.Fatalf("same-block misses issued %d memory reads, want 1 (merged)", len(b.reads))
	}
	b.completeAll(100)
	if n != 2 {
		t.Errorf("%d waiters completed, want 2", n)
	}
}

func TestStoreMissAllocatesAndReportsHit(t *testing.T) {
	h, b := testHier(1)
	res, _ := h.Access(0, 0x3000, true, 0, nil)
	if res != Hit {
		t.Fatalf("store miss = %v, want Hit (store buffer hides latency)", res)
	}
	if len(b.reads) != 1 {
		t.Fatalf("write-allocate fetch missing: %d reads", len(b.reads))
	}
	b.completeAll(50)
	// The filled line must be dirty: evicting it forces a writeback.
	blk := uint64(0x3000) / 64
	if d := h.l1[0].Invalidate(blk); !d {
		t.Error("store-allocated line not dirty in L1")
	}
}

func TestL1MSHRLimitStalls(t *testing.T) {
	h, b := testHier(1)
	limit := h.cfg.L1.MSHRs
	for i := 0; i < limit; i++ {
		res, _ := h.Access(0, uint64(0x100000+i*64), false, 0, nil)
		if res != Queued {
			t.Fatalf("access %d = %v, want Queued", i, res)
		}
	}
	res, _ := h.Access(0, 0x900000, false, 0, nil)
	if res != Stall {
		t.Errorf("access beyond L1 MSHR limit = %v, want Stall", res)
	}
	b.completeAll(10)
	res, _ = h.Access(0, 0x900000, false, 0, nil)
	if res != Queued {
		t.Errorf("after fills, access = %v, want Queued", res)
	}
}

func TestBackendFullStalls(t *testing.T) {
	h, b := testHier(1)
	b.full = true
	res, _ := h.Access(0, 0x4000, false, 0, nil)
	if res != Stall {
		t.Errorf("access with full controller queue = %v, want Stall", res)
	}
}

func TestDirtyEvictionReachesMemory(t *testing.T) {
	h, b := testHier(1)
	llcBlocks := uint64(h.cfg.LLC.SizeBytes / h.cfg.LLC.BlockBytes)
	// Dirty one block, then stream enough blocks through to evict it
	// from every level.
	h.Access(0, 0, true, 0, nil)
	b.completeAll(1)
	for i := uint64(1); i <= llcBlocks+llcBlocks/16; i++ {
		h.Access(0, i*64, false, 0, nil)
		b.completeAll(int64(i))
	}
	if len(b.writes) == 0 {
		t.Error("dirty block never written back to memory")
	}
}

func TestPrefetcherIssuesOnStride(t *testing.T) {
	b := &fakeBackend{}
	cfg := DefaultHierarchyConfig(1)
	cfg.PrefetchDegree = 2
	h := NewHierarchy(cfg, b, fixedClock{})
	// Three strided misses establish confidence; further misses prefetch.
	for i := 0; i < 6; i++ {
		h.Access(0, uint64(i)*64*4+0x10000, false, 0, nil)
		b.completeAll(int64(i))
	}
	if h.Prefetches == 0 {
		t.Error("stride prefetcher never fired on a regular stream")
	}
}

// TestL2PrivateHitKeepsEpoch pins the L2 half of the narrowed epoch
// argument (see ver): an L2 hit whose fill cascade stays inside the
// hitting core's private L1/L2 must not advance Ver — neither when the
// L1 absorbs the block into an invalid way, nor when the L1's dirty
// victim is re-absorbed in place by the core's own L2.
func TestL2PrivateHitKeepsEpoch(t *testing.T) {
	h, _ := testHier(1)

	// Invalid-way case: block resident in L2 only, L1 set empty.
	h.l2[0].Insert(100, false)
	v0 := h.Ver()
	res, lat := h.Access(0, 100*64, false, 0, nil)
	if res != Hit || lat != h.cfg.L2.LatencyCPU {
		t.Fatalf("access = %v/%d, want L2 hit", res, lat)
	}
	if h.Ver() != v0 {
		t.Fatalf("private L2 hit moved the epoch: %d -> %d", v0, h.Ver())
	}

	// Dirty-victim-absorbed case: the L1's victim is dirty but resident
	// in the core's own L2, so the castout updates it in place.
	l1sets := uint64(h.cfg.L1.Sets())
	dirty := uint64(200)              // will become the L1 victim
	b := dirty + l1sets               // same L1 set, different L2 set
	h.l2[0].Insert(dirty, false)      // castout target, in own L2
	h.l2[0].Insert(b, false)          // the block to hit
	h.l1[0].Insert(dirty, true)       // dirty, oldest in its L1 set
	for i := uint64(2); i <= 8; i++ { // fill the set; dirty is LRU
		h.l1[0].Insert(dirty+i*l1sets, false)
	}
	v0 = h.Ver()
	res, lat = h.Access(0, b*64, false, 0, nil)
	if res != Hit || lat != h.cfg.L2.LatencyCPU {
		t.Fatalf("access = %v/%d, want L2 hit", res, lat)
	}
	if h.Ver() != v0 {
		t.Fatalf("absorbed-castout L2 hit moved the epoch: %d -> %d", v0, h.Ver())
	}
	if !h.l1[0].Contains(b) || !h.l2[0].Contains(dirty) {
		t.Fatal("fill cascade did not land where expected")
	}
}

// TestL2SharedCascadeBumpsEpoch is the boundary of the narrowing: an L2
// hit whose castout chain spills a dirty L2 victim into the shared LLC
// must advance Ver exactly once — it changed LLC content, which a
// probe-stalled core's retry outcome can depend on.
func TestL2SharedCascadeBumpsEpoch(t *testing.T) {
	h, _ := testHier(1)
	l1sets := uint64(h.cfg.L1.Sets())
	l2sets := uint64(h.cfg.L2.Sets())

	dirty := uint64(300)  // L1's dirty victim, NOT in L2
	b := dirty + l1sets*2 // same L1 set (and a different L2 set)
	h.l2[0].Insert(b, false)
	h.l1[0].Insert(dirty, true)
	for i := uint64(1); i <= 7; i++ { // fill the rest; dirty is LRU
		h.l1[0].Insert(b+i*l1sets, false)
	}
	// Fill dirty's entire L2 set with dirty lines, so inserting the
	// castout must evict one into the LLC.
	for i := uint64(0); i < uint64(h.cfg.L2.Ways); i++ {
		h.l2[0].Insert(dirty+(i+1)*l2sets, true)
	}
	v0 := h.Ver()
	res, lat := h.Access(0, b*64, false, 0, nil)
	if res != Hit || lat != h.cfg.L2.LatencyCPU {
		t.Fatalf("access = %v/%d, want L2 hit", res, lat)
	}
	if h.Ver() != v0+1 {
		t.Fatalf("shared-cascade L2 hit moved the epoch by %d, want 1", h.Ver()-v0)
	}
}

// TestProbeRetrySkipAcrossPrivateL2Hits is the probe-retry regression
// the narrowing must uphold: while a core sits probe-stalled, another
// core's private L2 hits leave the epoch unmoved AND the stalled
// retry's outcome genuinely unchanged — so a scheduler that skips the
// retry while the epoch holds still is exact. A shared-path access
// then moves the epoch, signaling the retry must re-run.
func TestProbeRetrySkipAcrossPrivateL2Hits(t *testing.T) {
	h, b := testHier(2)

	// Core 1 probe-stalls: the backend refuses its demand read.
	b.full = true
	res, _ := h.Access(1, 0x40000, false, 0, nil)
	if res != Stall {
		t.Fatalf("access with full backend = %v, want Stall", res)
	}
	v0 := h.Ver()

	// Core 0 performs private L2 hits; the epoch must hold still and
	// core 1's retry must still stall (skipping it was sound).
	h.l2[0].Insert(7, false)
	h.l2[0].Insert(8, false)
	for _, blk := range []uint64{7, 8} {
		if res, _ := h.Access(0, blk*64, false, 0, nil); res != Hit {
			t.Fatalf("core 0 access = %v, want Hit", res)
		}
	}
	if h.Ver() != v0 {
		t.Fatalf("private L2 hits moved the epoch: %d -> %d", v0, h.Ver())
	}
	if res, _ := h.Access(1, 0x40000, false, 0, nil); res != Stall {
		t.Fatalf("retry after private hits = %v, want Stall", res)
	}

	// A shared-path access (an LLC miss that queues) moves the epoch.
	b.full = false
	if res, _ := h.Access(0, 0x80000, false, 0, nil); res != Queued {
		t.Fatal("expected a queued LLC miss")
	}
	if h.Ver() == v0 {
		t.Fatal("shared-path access left the epoch unmoved")
	}
}
