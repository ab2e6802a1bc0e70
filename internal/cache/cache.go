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

	"chopim/internal/dram"
)

// Config sizes one cache level. Every level holds dram.BlockBytes
// blocks.
type Config struct {
	SizeBytes  int
	Ways       int
	LatencyCPU int64 // hit latency in CPU cycles
	MSHRs      int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * dram.BlockBytes) }

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive size field in %+v", c)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("cache: %d ways, at most %d fit a set's recency word", c.Ways, maxWays)
	}
	if c.SizeBytes%(c.Ways*dram.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d ways of %dB blocks",
			c.SizeBytes, c.Ways, dram.BlockBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	return nil
}

// Cache is a single set-associative level. Each way is one packed word
// in set-major order, so the per-access way scan — the hottest loop in
// the whole simulator — reads 4 B per way and a 16-way LLC set spans
// 64 B:
//
//	bits 31..1  key: tag+1, or 0 for an invalid way
//	bit  0      dirty
//
// An invalid way is the zero word. Keys must fit 31 bits, so the
// largest block a level holds is below (2^31-1)·Sets (see
// HierarchyConfig.CheckSpan); index panics past it.
//
// Recency is kept per set: LRU is a stack algorithm, so victim choice
// reads only the order of touches within a set, never a time. order[s]
// lists set s's way indices as 4-bit nibbles, from the least recently
// touched (bits 3..0) to the most recently touched (nibble ways-1). A
// hit or a fill moves its way's nibble to the top; a full set's victim
// is the bottom nibble. Invalid ways sit anywhere in the order: a way
// becomes valid only by a fill, which moves it to the top.
type Cache struct {
	cfg   Config
	lines []uint32
	order []uint64 // per set: way indices, least recently touched first
	nsets uint64
	smask uint64 // nsets-1; Validate guarantees nsets is a power of two
	shift uint   // log2(nsets)
	ways  int
	top   uint // bit offset of the most recently touched nibble, 4·(ways-1)

	Hits, Misses int64
}

// Packed way layout (see Cache).
const (
	dirtyBit = 1
	maxKey   = 1<<31 - 1
	maxWays  = 16 // nibbles in a set's order word

	nibbleOnes  = 0x1111111111111111
	nibbleHighs = 0x8888888888888888
)

// New builds a cache level. It panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Every set starts with its ways listed in index order.
	var o uint64
	for w := 0; w < cfg.Ways; w++ {
		o |= uint64(w) << (4 * w)
	}
	order := make([]uint64, cfg.Sets())
	for i := range order {
		order[i] = o
	}
	return &Cache{
		cfg:   cfg,
		lines: make([]uint32, cfg.Sets()*cfg.Ways),
		order: order,
		nsets: uint64(cfg.Sets()),
		smask: uint64(cfg.Sets()) - 1,
		shift: uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		ways:  cfg.Ways,
		top:   uint(4 * (cfg.Ways - 1)),
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
func (c *Cache) index(block uint64) (set int, key uint32) {
	tag := block >> c.shift
	if tag >= maxKey {
		panic("cache: block does not fit a 31-bit key")
	}
	return c.setOf(block), uint32(tag) + 1
}

// setOf returns the block's set.
func (c *Cache) setOf(block uint64) int { return int(block & c.smask) }

// touch makes way w of the set its most recently touched: w's nibble
// leaves its place, the nibbles above it shift down one, and w goes on
// top. Each way index appears once in the order word, so the lowest
// zero nibble of o^(w in every nibble) is w's; the SWAR test below
// flags a zero nibble exactly, and can misflag only above a true one.
func (c *Cache) touch(set, w int) {
	o := c.order[set]
	if o>>c.top == uint64(w) {
		return
	}
	x := o ^ uint64(w)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3
	c.order[set] = o&(1<<p-1) | o>>(p+4)<<p | uint64(w)<<c.top
}

// Lookup probes for the block (address divided by block size), updating
// LRU and hit/miss counters. If write, a hit marks the line dirty.
func (c *Cache) Lookup(block uint64, write bool) bool {
	set, key := c.index(block)
	base := set * c.ways
	for i, l := range c.lines[base : base+c.ways] {
		if l>>1 == key {
			c.touch(set, i)
			if write {
				c.lines[base+i] |= dirtyBit
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// unMiss reverses the counter effect of an immediately preceding Lookup
// that missed (one Misses increment; a missed Lookup touches no line
// and no recency order, so nothing else changed). The hierarchy uses it
// to keep stalled accesses side-effect-free: an Access that returns
// Stall is retried every cycle by a blocked core, and those retry
// probes must leave the caches in exactly the state they found them for
// the fast-forward machinery to skip the retries.
func (c *Cache) unMiss() { c.Misses-- }

// Contains probes without side effects.
func (c *Cache) Contains(block uint64) bool {
	set, key := c.index(block)
	base := set * c.ways
	for _, l := range c.lines[base : base+c.ways] {
		if l>>1 == key {
			return true
		}
	}
	return false
}

// Insert fills the block, returning any evicted dirty victim. A block
// already present is refreshed in place. Otherwise the victim is the
// last invalid way of the set, or, in a full set, its least recently
// touched way.
func (c *Cache) Insert(block uint64, dirty bool) (victim uint64, victimDirty bool) {
	set, key := c.index(block)
	base := set * c.ways
	lines := c.lines[base : base+c.ways]
	var d uint32
	if dirty {
		d = dirtyBit
	}
	vi := -1
	for i, l := range lines {
		if l>>1 == key {
			lines[i] = l | d
			c.touch(set, i)
			return 0, false
		}
		if l == 0 {
			vi = i
		}
	}
	if vi < 0 {
		vi = int(c.order[set] & 0xf)
	}
	old := lines[vi]
	lines[vi] = key<<1 | d
	c.touch(set, vi)
	if old&dirtyBit != 0 {
		return uint64(old>>1-1)*c.nsets + uint64(set), true
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
		if l>>1 == key {
			c.lines[base+i] = 0
			return l&dirtyBit != 0
		}
	}
	return false
}
