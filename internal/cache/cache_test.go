package cache

import (
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{SizeBytes: 4096, Ways: 4, LatencyCPU: 4, MSHRs: 4}
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallConfig()
	bad.SizeBytes = 4096 + 64
	if err := bad.Validate(); err == nil {
		t.Error("accepted non-divisible size")
	}
	bad = smallConfig()
	bad.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero ways")
	}
	// One set fewer: still divisible, set count no longer a power of two.
	bad = smallConfig()
	bad.SizeBytes -= bad.Ways * 64
	if err := bad.Validate(); err == nil {
		t.Error("accepted a set count that is not a power of two")
	}
	// A set's recency word holds 16 four-bit way indices.
	wide := Config{SizeBytes: 16 * 64 * 16, Ways: 16}
	if err := wide.Validate(); err != nil {
		t.Errorf("rejected 16 ways: %v", err)
	}
	wide.Ways, wide.SizeBytes = 32, 32*64*16
	if err := wide.Validate(); err == nil {
		t.Error("accepted 32 ways")
	}
}

func TestLookupInsert(t *testing.T) {
	c := New(smallConfig())
	if c.Lookup(1, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(1, false)
	if !c.Lookup(1, false) {
		t.Fatal("miss after insert")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallConfig()) // 16 sets, 4 ways
	sets := uint64(16)
	// Fill one set with 4 blocks, touch the first, insert a 5th:
	// the least-recently-used (second) must be evicted.
	blocks := []uint64{0, sets, 2 * sets, 3 * sets}
	for _, b := range blocks {
		c.Insert(b, false)
	}
	c.Lookup(0, false) // refresh block 0
	c.Insert(4*sets, false)
	if !c.Contains(0) {
		t.Error("recently-used block evicted")
	}
	if c.Contains(sets) {
		t.Error("LRU block survived eviction")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := New(smallConfig())
	sets := uint64(16)
	c.Insert(0, true) // dirty
	for i := uint64(1); i <= 4; i++ {
		v, d := c.Insert(i*sets, false)
		if i < 4 {
			if d {
				t.Fatalf("unexpected dirty victim at fill %d", i)
			}
			continue
		}
		if !d || v != 0 {
			t.Errorf("victim = (%d, %v), want (0, true)", v, d)
		}
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New(smallConfig())
	c.Insert(7, false)
	c.Lookup(7, true) // store hit dirties the line
	if d := c.Invalidate(7); !d {
		t.Error("store hit did not mark line dirty")
	}
}

func TestInvalidateMissingBlock(t *testing.T) {
	c := New(smallConfig())
	if c.Invalidate(99) {
		t.Error("invalidate of absent block reported dirty")
	}
}

func TestInsertExistingUpdatesNotEvicts(t *testing.T) {
	c := New(smallConfig())
	c.Insert(3, false)
	v, d := c.Insert(3, true)
	if d || v != 0 {
		t.Errorf("re-insert evicted (%d, %v)", v, d)
	}
	if !c.Contains(3) {
		t.Error("block lost on re-insert")
	}
}

// Property: a cache never holds more distinct blocks than its capacity.
func TestCapacityInvariant(t *testing.T) {
	f := func(seeds []uint64) bool {
		c := New(smallConfig())
		for _, s := range seeds {
			c.Insert(s%1024, s%2 == 0)
		}
		count := 0
		for b := uint64(0); b < 1024; b++ {
			if c.Contains(b) {
				count++
			}
		}
		return count <= 64 // 4 KiB / 64 B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// maxBlock returns the largest block whose key fits c's packed word.
func maxBlock(c *Cache) uint64 { return (maxKey-1)<<c.shift | c.smask }

// Property: after Insert(b), Lookup(b) hits until b is evicted by
// inserts into the same set. Blocks are drawn from the range a packed
// 31-bit key covers (maxBlock); index panics past it.
func TestInsertThenLookupHits(t *testing.T) {
	f := func(r uint64) bool {
		c := New(smallConfig())
		b := r % (maxBlock(c) + 1)
		c.Insert(b, false)
		return c.Lookup(b, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyRange pins the packed key range: the largest block a level
// admits round-trips, and the next one panics rather than aliasing.
func TestKeyRange(t *testing.T) {
	c := New(smallConfig())
	top := maxBlock(c)
	c.Insert(top, true)
	if !c.Contains(top) || c.Contains(top&c.smask) {
		t.Fatal("largest admitted block does not round-trip")
	}
	if v, d := c.Insert(top, false); d || v != 0 {
		t.Fatalf("re-insert of the largest block evicted (%#x, %v)", v, d)
	}
	defer func() {
		if recover() == nil {
			t.Error("a block past the key range was admitted")
		}
	}()
	c.Insert(top+1, false)
}
