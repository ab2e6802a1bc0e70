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

// Cache is a single set-associative level. Each way is one packed word
// in set-major order, so the per-access way scan — the hottest loop in
// the whole simulator — reads one word per way and a 16-way LLC set
// spans 128 B:
//
//	bits 63..32  key: tag+1, or 0 for an invalid way
//	bits 31..1   last-touch stamp
//	bit  0       dirty
//
// An invalid way is the all-zero word. Keys must fit 32 bits, so the
// largest block a level holds is below (2^32-1)·Sets (see
// HierarchyConfig.CheckSpan); index panics past it. Stamps must fit 31
// bits: before one would overflow, renorm rewrites every set's stamps
// as their order within the set, which is all victim choice reads.
type Cache struct {
	cfg   Config
	lines []uint64
	nsets uint64
	smask uint64 // nsets-1; Validate guarantees nsets is a power of two
	shift uint   // log2(nsets)
	ways  int
	clock uint64 // advanced by every Lookup and Insert; a touched way takes it as its stamp
	limit uint64 // largest stamp (maxStamp; tests lower it to exercise renorm)

	// One-entry MRU filter: the last block that hit and the way that
	// held it. Streaming cores touch the same 64-byte block for several
	// consecutive accesses, and the repeat hits skip the way scan. The
	// filter is validated against the way's live key (a replacement
	// that reuses the slot fails the check; lastKey 0 marks the filter
	// empty), and the filtered path performs exactly the state updates
	// the scan would — clock, stamp, dirty, Hits — so behavior is
	// bit-identical.
	lastBlock uint64
	lastKey   uint64 // key of the filtered way, 0 when empty
	lastWay   int    // index into lines of the filtered way

	Hits, Misses int64
}

// Packed way layout (see Cache).
const (
	keyShift  = 32
	stampMask = 1<<32 - 2 // bits 31..1
	dirtyBit  = 1
	maxKey    = 1<<32 - 1
	maxStamp  = 1<<31 - 1
)

// New builds a cache level. It panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:   cfg,
		lines: make([]uint64, cfg.Sets()*cfg.Ways),
		nsets: uint64(cfg.Sets()),
		smask: uint64(cfg.Sets()) - 1,
		shift: uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		ways:  cfg.Ways,
		limit: maxStamp,
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// MaxBlock returns the largest block whose key fits the packed word.
func (c Config) MaxBlock() uint64 {
	return (maxKey-1)<<bits.TrailingZeros64(uint64(c.Sets())) | uint64(c.Sets()-1)
}

// index returns the block's set and its key (tag+1). Sets() is
// validated to be a power of two, so mask/shift compute exactly
// block%nsets and block/nsets without two 64-bit divisions on the
// hottest path in the simulator.
func (c *Cache) index(block uint64) (set int, key uint64) {
	tag := block >> c.shift
	if tag >= maxKey {
		panic("cache: block does not fit a 32-bit key")
	}
	return c.setOf(block), tag + 1
}

// setOf returns the block's set.
func (c *Cache) setOf(block uint64) int { return int(block & c.smask) }

// stamp advances the clock and returns it in a way's stamp bits, for
// the way a hit or a fill touches. It renormalises first when the stamp
// would pass the limit; renorm keeps every way's key and dirty bit.
func (c *Cache) stamp() uint64 {
	if c.clock >= c.limit {
		c.renorm()
	}
	c.clock++
	return c.clock << 1
}

// renorm rewrites each set's stamps as their ranks within the set (1 for
// the least recently touched valid way) and restarts the clock above
// them. Stamps within a set are distinct (each write takes a fresh clock
// value), and victim choice reads only their order, which renorm
// keeps, so the cache behaves exactly as before.
func (c *Cache) renorm() {
	rank := make([]uint64, c.ways)
	for base := 0; base < len(c.lines); base += c.ways {
		set := c.lines[base : base+c.ways]
		for i, w := range set {
			rank[i] = 1
			for _, o := range set {
				if o != 0 && o&stampMask < w&stampMask {
					rank[i]++
				}
			}
		}
		for i, w := range set {
			if w != 0 {
				set[i] = w&^stampMask | rank[i]<<1
			}
		}
	}
	c.clock = uint64(c.ways)
}

// Lookup probes for the block (address divided by block size), updating
// LRU and hit/miss counters. If write, a hit marks the line dirty.
func (c *Cache) Lookup(block uint64, write bool) bool {
	w := c.lastWay
	if block != c.lastBlock || c.lastKey == 0 || c.lines[w]>>keyShift != c.lastKey {
		set, key := c.index(block)
		base := set * c.ways
		w = -1
		for i, l := range c.lines[base : base+c.ways] {
			if l>>keyShift == key {
				w = base + i
				break
			}
		}
		if w < 0 {
			c.clock++
			c.Misses++
			return false
		}
		c.lastBlock, c.lastKey, c.lastWay = block, key, w
	}
	st := c.stamp()
	l := c.lines[w]&^stampMask | st
	if write {
		l |= dirtyBit
	}
	c.lines[w] = l
	c.Hits++
	return true
}

// unMiss reverses the counter effects of an immediately preceding Lookup
// that missed (one Misses increment and one clock advance; a missed
// Lookup touches no line and never renormalises, so nothing else
// changed). The hierarchy uses it to keep stalled accesses
// side-effect-free: an Access that returns Stall is retried every cycle
// by a blocked core, and those retry probes must leave the caches in
// exactly the state they found them for the fast-forward machinery to
// skip the retries.
func (c *Cache) unMiss() {
	c.Misses--
	c.clock--
}

// Contains probes without side effects.
func (c *Cache) Contains(block uint64) bool {
	set, key := c.index(block)
	base := set * c.ways
	for _, l := range c.lines[base : base+c.ways] {
		if l>>keyShift == key {
			return true
		}
	}
	return false
}

// Insert fills the block, returning any evicted dirty victim. A block
// already present is refreshed in place. Otherwise the victim is the
// last invalid way of the set, or, in a full set, the way with the
// smallest stamp.
func (c *Cache) Insert(block uint64, dirty bool) (victim uint64, victimDirty bool) {
	set, key := c.index(block)
	base := set * c.ways
	lines := c.lines[base : base+c.ways]
	vi := -1
	for i, l := range lines {
		if l>>keyShift == key {
			st := c.stamp()
			l = lines[i]&^stampMask | st
			if dirty {
				l |= dirtyBit
			}
			lines[i] = l
			return 0, false
		}
		if l == 0 {
			vi = i
		}
	}
	if vi < 0 {
		// Stamps in a set are distinct, so the dirty bit below them
		// never decides the comparison.
		vi = 0
		for i := 1; i < len(lines); i++ {
			if uint32(lines[i]) < uint32(lines[vi]) {
				vi = i
			}
		}
	}
	old := lines[vi]
	l := key<<keyShift | c.stamp()
	if dirty {
		l |= dirtyBit
	}
	lines[vi] = l
	if old&dirtyBit != 0 {
		return (old>>keyShift-1)*c.nsets + uint64(set), true
	}
	return 0, false
}

// ValidLines counts resident lines. The packed-cache oracle test
// compares it against the reference cache's count after every step.
func (c *Cache) ValidLines() int {
	n := 0
	for _, l := range c.lines {
		if l != 0 {
			n++
		}
	}
	return n
}

// Invalidate drops the block if present, reporting whether it was dirty.
func (c *Cache) Invalidate(block uint64) (wasDirty bool) {
	set, key := c.index(block)
	base := set * c.ways
	for i, l := range c.lines[base : base+c.ways] {
		if l>>keyShift == key {
			c.lines[base+i] = 0
			return l&dirtyBit != 0
		}
	}
	return false
}
