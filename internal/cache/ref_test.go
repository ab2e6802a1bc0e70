package cache

import (
	"encoding/json"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refLine is one cache line's tag state in the reference layout.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch counter
}

// refCache is the array-of-structs cache level the packed tag arrays
// replaced, kept verbatim as the test oracle: one 24-byte line struct
// per way, validity as a flag, the MRU filter as a line pointer.
type refCache struct {
	cfg   Config
	lines []refLine
	nsets uint64
	smask uint64 // nsets-1; Validate guarantees nsets is a power of two
	shift uint   // log2(nsets)
	ways  int
	clock uint64

	// One-entry MRU filter: the last block that hit and the line that
	// held it. Streaming cores touch the same 64-byte block for several
	// consecutive accesses, and the repeat hits skip the way scan. The
	// filter is validated against the line's live tag (a replacement
	// that reuses the slot fails the check), and the filtered path
	// performs exactly the state updates the scan would — clock, LRU,
	// dirty, Hits — so behavior is bit-identical.
	lastBlock uint64
	lastTag   uint64
	lastLine  *refLine

	Hits, Misses int64
}

// newRefCache builds a reference level. It panics on invalid configuration.
func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &refCache{
		cfg:   cfg,
		lines: make([]refLine, cfg.Sets()*cfg.Ways),
		nsets: uint64(cfg.Sets()),
		smask: uint64(cfg.Sets()) - 1,
		shift: uint(bits.TrailingZeros64(uint64(cfg.Sets()))),
		ways:  cfg.Ways,
	}
}

func (c *refCache) index(block uint64) (set int, tag uint64) {
	// Sets() is validated to be a power of two, so mask/shift compute
	// exactly block%nsets and block/nsets without two 64-bit divisions
	// on the hottest path in the simulator.
	return int(block & c.smask), block >> c.shift
}

// set returns the set's ways as a subslice of the flat line array.
func (c *refCache) set(set int) []refLine {
	return c.lines[set*c.ways : set*c.ways+c.ways]
}

// Lookup probes for the block (address divided by block size), updating
// LRU and hit/miss counters. If write, a hit marks the line dirty.
func (c *refCache) Lookup(block uint64, write bool) bool {
	if block == c.lastBlock {
		if l := c.lastLine; l != nil && l.valid && l.tag == c.lastTag {
			c.clock++
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			c.Hits++
			return true
		}
	}
	set, tag := c.index(block)
	c.clock++
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			c.Hits++
			c.lastBlock, c.lastTag, c.lastLine = block, tag, l
			return true
		}
	}
	c.Misses++
	return false
}

// Contains probes without side effects.
func (c *refCache) Contains(block uint64) bool {
	set, tag := c.index(block)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Insert fills the block, returning any evicted dirty victim.
func (c *refCache) Insert(block uint64, dirty bool) (victim uint64, victimDirty bool) {
	set, tag := c.index(block)
	c.clock++
	ways := c.set(set)
	// Reuse an existing or invalid way first.
	vi := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].dirty = ways[i].dirty || dirty
			ways[i].lru = c.clock
			return 0, false
		}
		if !ways[i].valid {
			vi = i
		} else if ways[vi].valid && ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	v := ways[vi]
	ways[vi] = refLine{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	if v.valid && v.dirty {
		return v.tag*c.nsets + uint64(set), true
	}
	return 0, false
}

// ValidLines counts resident lines, mirroring Cache.ValidLines.
func (c *refCache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// Invalidate drops the block if present, reporting whether it was dirty.
func (c *refCache) Invalidate(block uint64) (wasDirty bool) {
	set, tag := c.index(block)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			d := l.dirty
			*l = refLine{}
			return d
		}
	}
	return false
}

// recency returns the set's valid ways, least recently touched first.
func (c *refCache) recency(set int) []int {
	ways := c.set(set)
	var ws []int
	for i := range ways {
		if ways[i].valid {
			ws = append(ws, i)
		}
	}
	sort.Slice(ws, func(a, b int) bool { return ways[ws[a]].lru < ways[ws[b]].lru })
	return ws
}

// recency returns the set's valid ways, least recently touched first,
// after checking that its order word lists every way exactly once.
func (c *Cache) recency(t *testing.T, set int) []int {
	t.Helper()
	o := c.order[set]
	if o>>c.top>>4 != 0 {
		t.Fatalf("set %d: order word %#x has bits above its %d ways", set, o, c.ways)
	}
	var seen uint32
	var ws []int
	for k := 0; k < c.ways; k, o = k+1, o>>4 {
		w := int(o & 0xf)
		if w >= c.ways || seen&(1<<w) != 0 {
			t.Fatalf("set %d: order word %#x is not a permutation of its %d ways", set, c.order[set], c.ways)
		}
		seen |= 1 << w
		if c.lines[set*c.ways+w] != 0 {
			ws = append(ws, w)
		}
	}
	return ws
}

// TestPackedCacheMatchesReference drives the packed cache and the
// array-of-structs reference, whose ways carry global last-touch
// stamps, with one random Lookup/Insert/Invalidate/Contains stream on
// the L1, L2 and LLC geometries of the default hierarchy. Traffic
// concentrates on a few sets so they fill, evict and reuse invalidated
// ways, and repeats the previous block so the reference's MRU filter
// serves hits (and must reject ways refilled under it). Every return value and
// counter must agree at every step, and so must the contents and the
// recency order of the set each operation addressed (no operation
// reaches another set). At checkpoints along the way every set is
// compared, with ValidLines. The stream continues across a mid-stream
// snapshot/restore and a JSON round trip of the level's state, which
// must restore its way and order words bit for bit.
func TestPackedCacheMatchesReference(t *testing.T) {
	h := DefaultHierarchyConfig(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"L1", h.L1}, {"L2", h.L2}, {"LLC", h.LLC}} {
		t.Run(tc.name, func(t *testing.T) {
			const ops = 120_000
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			c, r := New(tc.cfg), newRefCache(tc.cfg)
			sets, ways := uint64(tc.cfg.Sets()), tc.cfg.Ways
			last := uint64(0)
			draw := func() uint64 {
				switch rng.Intn(4) {
				case 0:
					return last
				case 1:
					return uint64(rng.Int63n(int64(4 * sets * uint64(ways))))
				default:
					return uint64(rng.Intn(3*ways))*sets + uint64(rng.Intn(8))
				}
			}
			checkSet := func(op, set int) {
				t.Helper()
				for i := set * ways; i < (set+1)*ways; i++ {
					l, rl := c.lines[i], r.lines[i]
					if (l != 0) != rl.valid || rl.valid && (uint64(l>>1-1) != rl.tag || l&dirtyBit != 0 != rl.dirty) {
						t.Fatalf("op %d: way %d holds %#x, reference %+v", op, i, l, rl)
					}
				}
				if got, want := c.recency(t, set), r.recency(set); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: set %d recency order %v, reference %v", op, set, got, want)
				}
			}
			check := func(op int) {
				t.Helper()
				if got, want := c.ValidLines(), r.ValidLines(); got != want {
					t.Fatalf("op %d: ValidLines %d, reference %d", op, got, want)
				}
				for set := 0; set < int(sets); set++ {
					checkSet(op, set)
				}
			}
			for op := 0; op < ops; op++ {
				b := draw()
				last = b
				switch k := rng.Intn(10); {
				case k < 5:
					w := rng.Intn(3) == 0
					if got, want := c.Lookup(b, w), r.Lookup(b, w); got != want {
						t.Fatalf("op %d: Lookup(%d, %v) = %v, reference %v", op, b, w, got, want)
					}
				case k < 8:
					d := rng.Intn(2) == 0
					v, vd := c.Insert(b, d)
					rv, rvd := r.Insert(b, d)
					if v != rv || vd != rvd {
						t.Fatalf("op %d: Insert(%d, %v) = (%d, %v), reference (%d, %v)", op, b, d, v, vd, rv, rvd)
					}
				case k < 9:
					if got, want := c.Invalidate(b), r.Invalidate(b); got != want {
						t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", op, b, got, want)
					}
				default:
					if got, want := c.Contains(b), r.Contains(b); got != want {
						t.Fatalf("op %d: Contains(%d) = %v, reference %v", op, b, got, want)
					}
				}
				if c.Hits != r.Hits || c.Misses != r.Misses {
					t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", op, c.Hits, c.Misses, r.Hits, r.Misses)
				}
				checkSet(op, c.setOf(b))
				switch op {
				case ops / 4:
					// Continue on a restored copy.
					check(op)
					c2 := New(tc.cfg)
					c2.restore(c.snapshot())
					c = c2
				case ops / 2:
					// Continue on a copy decoded from JSON: every way
					// and order word, invalid ways' included, must
					// come back as it was.
					check(op)
					b, err := json.Marshal(c.snapshot())
					if err != nil {
						t.Fatal(err)
					}
					var dec cacheState
					if err := json.Unmarshal(b, &dec); err != nil {
						t.Fatal(err)
					}
					c2 := New(tc.cfg)
					c2.restore(dec)
					if !slices.Equal(c2.lines, c.lines) || !slices.Equal(c2.order, c.order) {
						t.Fatalf("op %d: JSON round trip changed the way or order words", op)
					}
					c = c2
				}
			}
			check(ops)
			if r.Hits == 0 || r.Misses == 0 || r.ValidLines() == 0 {
				t.Fatalf("degenerate stream: hits=%d misses=%d valid=%d", r.Hits, r.Misses, r.ValidLines())
			}
		})
	}
}
