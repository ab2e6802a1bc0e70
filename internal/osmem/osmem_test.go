package osmem

import (
	"testing"
	"testing/quick"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
)

func TestBuddyAllocFree(t *testing.T) {
	a, err := NewAllocator(0, 1<<20, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBytes(); got != 1<<20 {
		t.Fatalf("FreeBytes = %d", got)
	}
	p1, err := a.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("overlapping allocations")
	}
	if p2%8192 != 0 {
		t.Errorf("8KiB allocation at %#x not naturally aligned", p2)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBytes(); got != 1<<20 {
		t.Errorf("FreeBytes after frees = %d, want full", got)
	}
}

func TestBuddyMergeRestoresLargeBlocks(t *testing.T) {
	a, _ := NewAllocator(0, 1<<16, 1<<12)
	var ptrs []uint64
	for {
		p, err := a.Alloc(4096)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) != 16 {
		t.Fatalf("allocated %d x 4KiB from 64KiB", len(ptrs))
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// Buddies merged: a full-size allocation must succeed.
	if _, err := a.Alloc(1 << 16); err != nil {
		t.Errorf("full-size alloc after merge: %v", err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	a, _ := NewAllocator(0, 1<<16, 1<<12)
	p, _ := a.Alloc(4096)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Error("double free accepted")
	}
	if err := a.Free(0xdead000); err == nil {
		t.Error("free of never-allocated address accepted")
	}
}

func TestAllocatorRejectsBadConfig(t *testing.T) {
	if _, err := NewAllocator(0, 1<<20, 3000); err == nil {
		t.Error("non-power-of-two minBlock accepted")
	}
	if _, err := NewAllocator(100, 1<<20, 1<<12); err == nil {
		t.Error("misaligned base accepted")
	}
	if _, err := NewAllocator(0, 0, 1<<12); err == nil {
		t.Error("zero size accepted")
	}
}

// Property: allocations never overlap and stay in range.
func TestAllocNoOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		a, _ := NewAllocator(0, 1<<22, 1<<12)
		type span struct{ base, size uint64 }
		var spans []span
		for _, s := range sizes {
			n := uint64(s)%(64<<10) + 1
			p, err := a.Alloc(n)
			if err != nil {
				continue
			}
			rounded := uint64(1 << 12)
			for rounded < n {
				rounded <<= 1
			}
			if p+rounded > 1<<22 {
				return false
			}
			for _, sp := range spans {
				if p < sp.base+sp.size && sp.base < p+rounded {
					return false
				}
			}
			spans = append(spans, span{p, rounded})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func newTestOS(t *testing.T, partitioned bool) *OS {
	t.Helper()
	g := dram.DefaultGeometry()
	reserved := 0
	if partitioned {
		reserved = 1
	}
	m, err := addrmap.New(g, reserved)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOS(m)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOSPartitionedRegions(t *testing.T) {
	o := newTestOS(t, true)
	host, err := o.AllocHost(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	p := o.Mapper()
	if host >= p.SharedBase() {
		t.Error("host allocation landed in the shared region")
	}
	c, err := o.PickColor(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := o.AllocShared(1<<20, c)
	if err != nil {
		t.Fatal(err)
	}
	if sh < p.SharedBase() {
		t.Error("shared allocation below the shared base")
	}
	if o.ColorOf(sh) != c {
		t.Errorf("allocation color %#x != requested %#x", uint64(o.ColorOf(sh)), uint64(c))
	}
}

func TestColoredAllocationsAlign(t *testing.T) {
	o := newTestOS(t, true)
	c, err := o.PickColor(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := o.AllocShared(2<<20, c)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := o.AllocShared(2<<20, c)
	if err != nil {
		t.Fatal(err)
	}
	m := o.Mapper()
	for off := uint64(0); off < 2<<20; off += 64 << 10 {
		d1, d2 := m.Decode(a1+off), m.Decode(a2+off)
		if d1.Channel != d2.Channel || d1.Rank != d2.Rank ||
			d1.BankGroup != d2.BankGroup || d1.Bank != d2.Bank {
			t.Fatalf("equal-color allocations diverge at +%#x: %+v vs %+v", off, d1, d2)
		}
	}
}

func TestSharedExhaustion(t *testing.T) {
	o := newTestOS(t, true)
	c, _ := o.PickColor(1 << 30)
	var allocs []uint64
	for {
		a, err := o.AllocShared(1<<30, c)
		if err != nil {
			break
		}
		allocs = append(allocs, a)
	}
	if len(allocs) == 0 {
		t.Fatal("no 1 GiB shared allocations possible")
	}
	// Free one and retry: must succeed again.
	if err := o.FreeShared(allocs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AllocShared(1<<30, c); err != nil {
		t.Errorf("allocation after free failed: %v", err)
	}
}
