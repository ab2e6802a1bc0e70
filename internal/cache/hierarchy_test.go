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

func (f *fakeBackend) ReadFull(addr uint64) bool { return f.full }

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
	llcBlocks := uint64(h.cfg.LLC.Sets() * h.cfg.LLC.Ways)
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
