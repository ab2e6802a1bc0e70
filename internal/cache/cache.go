// Package cache implements the host cache hierarchy: set-associative
// write-back caches with LRU replacement and MSHR-limited non-blocking
// misses, composed into per-core L1/L2 levels under a shared LLC with a
// stride prefetcher (Table II configuration).
//
// The hierarchy is a latency/filter model: lookups resolve immediately
// with a hit latency, LLC misses are forwarded to a memory backend and
// complete through callbacks. Cache levels operate in CPU cycles; the
// backend operates in DRAM cycles and reports completion through the
// clock-converting callback installed by the hierarchy.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes one cache level.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	LatencyCPU int64 // hit latency in CPU cycles
	MSHRs      int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive size field in %+v", c)
	}
	if c.SizeBytes%(c.Ways*c.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d ways of %dB blocks",
			c.SizeBytes, c.Ways, c.BlockBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	return nil
}

// Cache is a single set-associative level. Tag state is kept as
// parallel arrays in set-major order, so the per-access way scan — the
// hottest loop in the whole simulator — reads one word per way: tags[i]
// is 0 for an invalid way and tag+1 for a valid one (a 16-way LLC probe
// touches 128 B of tags). The last-touch counters and dirty bits run in
// parallel and are read only on a hit, a fill's victim choice, or an
// eviction. Folding validity into the tag requires tag+1 not to wrap,
// which holds for any block below 2^64-1 (hierarchy blocks are byte
// addresses divided by the block size).
type Cache struct {
	cfg   Config
	tags  []uint64 // per way: 0 = invalid, tag+1 = valid
	lru   []uint64 // per way: last-touch counter (0 when invalid)
	dirty []bool   // per way (false when invalid)
	nsets uint64
	smask uint64 // nsets-1; Validate guarantees nsets is a power of two
	shift uint   // log2(nsets)
	ways  int
	clock uint64

	// One-entry MRU filter: the last block that hit and the way that
	// held it. Streaming cores touch the same 64-byte block for several
	// consecutive accesses, and the repeat hits skip the way scan. The
	// filter is validated against the way's live tag (a replacement
	// that reuses the slot fails the check; lastKey 0 marks the filter
	// empty), and the filtered path performs exactly the state updates
	// the scan would — clock, LRU, dirty, Hits — so behavior is
	// bit-identical.
	lastBlock uint64
	lastKey   uint64 // tags value of the filtered way (tag+1), 0 when empty
	lastWay   int    // index into tags of the filtered way

	Hits, Misses int64
}

// New builds a cache level. It panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets() * cfg.Ways
	return &Cache{
		cfg:   cfg,
		tags:  make([]uint64, n),
		lru:   make([]uint64, n),
		dirty: make([]bool, n),
		nsets: uint64(cfg.Sets()),
		smask: uint64(cfg.Sets()) - 1,
		shift: uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		ways:  cfg.Ways,
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// index returns the block's set and its tags key (tag+1). Sets() is
// validated to be a power of two, so mask/shift compute exactly
// block%nsets and block/nsets without two 64-bit divisions on the
// hottest path in the simulator.
func (c *Cache) index(block uint64) (set int, key uint64) {
	return int(block & c.smask), block>>c.shift + 1
}

// Lookup probes for the block (address divided by block size), updating
// LRU and hit/miss counters. If write, a hit marks the line dirty.
func (c *Cache) Lookup(block uint64, write bool) bool {
	if block == c.lastBlock && c.lastKey != 0 && c.tags[c.lastWay] == c.lastKey {
		c.clock++
		c.lru[c.lastWay] = c.clock
		if write {
			c.dirty[c.lastWay] = true
		}
		c.Hits++
		return true
	}
	set, key := c.index(block)
	c.clock++
	base := set * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			w := base + i
			c.lru[w] = c.clock
			if write {
				c.dirty[w] = true
			}
			c.Hits++
			c.lastBlock, c.lastKey, c.lastWay = block, key, w
			return true
		}
	}
	c.Misses++
	return false
}

// unMiss reverses the counter effects of an immediately preceding Lookup
// that missed (one Misses increment and one clock advance; a missed
// Lookup touches no line, so nothing else changed). The hierarchy uses it
// to keep stalled accesses side-effect-free: an Access that returns Stall
// is retried every cycle by a blocked core, and those retry probes must
// leave the caches in exactly the state they found them for the
// fast-forward machinery to skip the retries.
func (c *Cache) unMiss() {
	c.Misses--
	c.clock--
}

// Contains probes without side effects.
func (c *Cache) Contains(block uint64) bool {
	set, key := c.index(block)
	base := set * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == key {
			return true
		}
	}
	return false
}

// Insert fills the block, returning any evicted dirty victim. A block
// already present is refreshed in place. Otherwise the victim is the
// last invalid way of the set, or, in a full set, the first way with the
// smallest last-touch counter.
func (c *Cache) Insert(block uint64, dirty bool) (victim uint64, victimDirty bool) {
	set, key := c.index(block)
	c.clock++
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	vi := -1
	for i, t := range tags {
		if t == key {
			w := base + i
			c.dirty[w] = c.dirty[w] || dirty
			c.lru[w] = c.clock
			return 0, false
		}
		if t == 0 {
			vi = i
		}
	}
	if vi < 0 {
		lru := c.lru[base : base+c.ways]
		vi = 0
		for i := 1; i < len(lru); i++ {
			if lru[i] < lru[vi] {
				vi = i
			}
		}
	}
	w := base + vi
	old, oldDirty := c.tags[w], c.dirty[w]
	c.tags[w], c.lru[w], c.dirty[w] = key, c.clock, dirty
	if old != 0 && oldDirty {
		return (old-1)*c.nsets + uint64(set), true
	}
	return 0, false
}

// ValidLines counts resident lines. The packed-cache oracle test
// compares it against the reference cache's count after every step.
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Invalidate drops the block if present, reporting whether it was dirty.
func (c *Cache) Invalidate(block uint64) (wasDirty bool) {
	set, key := c.index(block)
	base := set * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			w := base + i
			d := c.dirty[w]
			c.tags[w], c.lru[w], c.dirty[w] = 0, 0, false
			return d
		}
	}
	return false
}
