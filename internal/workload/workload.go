// Package workload provides synthetic host traffic generators standing in
// for the SPEC CPU2006/2017 benchmarks of Table II, plus the paper's nine
// application mixes.
//
// Each benchmark is reduced to the traffic features the experiments
// depend on: memory intensity class (H/M/L MPKI), footprint relative to
// the 8 MiB LLC, streaming versus random access balance, and store
// fraction. See DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"

	"chopim/internal/cpu"
	"chopim/internal/workload/rng"
)

// Class is the paper's memory-intensity label.
type Class int

// Memory-intensity classes from Table II.
const (
	Low Class = iota
	Medium
	High
)

// String returns the Table II letter.
func (c Class) String() string {
	switch c {
	case Low:
		return "L"
	case Medium:
		return "M"
	case High:
		return "H"
	}
	return "?"
}

// Profile characterizes one benchmark's synthetic traffic.
type Profile struct {
	Name       string
	Class      Class
	MemRatio   float64 // fraction of instructions that touch memory
	WriteFrac  float64 // fraction of memory ops that are stores
	Footprint  uint64  // working-set bytes
	StreamFrac float64 // fraction of memory ops on sequential streams
	Streams    int     // concurrent sequential streams

	// DepFrac, when positive, overrides the default dependency-chain
	// fraction (depFrac): the probability an instruction heads a chain
	// and issues alone. Values near 1 model serialize-heavy, low-ILP
	// code whose cores spend most of their time blocked on memory.
	DepFrac float64
}

// Profiles maps every benchmark named in Table II to its traffic model.
// Footprints are chosen relative to the 8 MiB LLC so that the H/M/L MPKI
// classes emerge from cache filtering.
var Profiles = map[string]Profile{
	// High: footprints far beyond the 8 MiB LLC; random-heavy or
	// wide-stream access defeats caching (MPKI ~30+).
	"mcf_r":     {Name: "mcf_r", Class: High, MemRatio: 0.33, WriteFrac: 0.15, Footprint: 96 << 20, StreamFrac: 0.15, Streams: 2},
	"lbm_r":     {Name: "lbm_r", Class: High, MemRatio: 0.30, WriteFrac: 0.40, Footprint: 128 << 20, StreamFrac: 0.92, Streams: 8},
	"omnetpp_r": {Name: "omnetpp_r", Class: High, MemRatio: 0.30, WriteFrac: 0.25, Footprint: 48 << 20, StreamFrac: 0.25, Streams: 2},
	"gemsFDTD":  {Name: "gemsFDTD", Class: High, MemRatio: 0.30, WriteFrac: 0.30, Footprint: 96 << 20, StreamFrac: 0.85, Streams: 6},
	"soplex":    {Name: "soplex", Class: High, MemRatio: 0.28, WriteFrac: 0.20, Footprint: 48 << 20, StreamFrac: 0.60, Streams: 4},
	// Medium: footprints near the LLC size; partially resident after
	// warm-up (MPKI ~8-15).
	"bwaves_r":     {Name: "bwaves_r", Class: Medium, MemRatio: 0.18, WriteFrac: 0.25, Footprint: 16 << 20, StreamFrac: 0.85, Streams: 6},
	"milc":         {Name: "milc", Class: Medium, MemRatio: 0.18, WriteFrac: 0.30, Footprint: 14 << 20, StreamFrac: 0.75, Streams: 4},
	"leslie3d":     {Name: "leslie3d", Class: Medium, MemRatio: 0.18, WriteFrac: 0.30, Footprint: 12 << 20, StreamFrac: 0.80, Streams: 6},
	"astar":        {Name: "astar", Class: Medium, MemRatio: 0.18, WriteFrac: 0.20, Footprint: 10 << 20, StreamFrac: 0.30, Streams: 2},
	"cactusBSSN_r": {Name: "cactusBSSN_r", Class: Medium, MemRatio: 0.17, WriteFrac: 0.30, Footprint: 12 << 20, StreamFrac: 0.80, Streams: 4},
	// Low: L2-resident working sets (MPKI ~0 after warm-up), immune to
	// LLC pollution from co-running streams.
	"leela_r":     {Name: "leela_r", Class: Low, MemRatio: 0.15, WriteFrac: 0.20, Footprint: 192 << 10, StreamFrac: 0.30, Streams: 2},
	"deepsjeng_r": {Name: "deepsjeng_r", Class: Low, MemRatio: 0.16, WriteFrac: 0.25, Footprint: 224 << 10, StreamFrac: 0.20, Streams: 2},
	"xchange2_r":  {Name: "xchange2_r", Class: Low, MemRatio: 0.14, WriteFrac: 0.25, Footprint: 160 << 10, StreamFrac: 0.30, Streams: 2},
}

// Mixes reproduces Table II's nine application mixes. Mix 0 runs eight
// cores (the under-provisioned bandwidth case); the rest run four.
var Mixes = [][]string{
	{"mcf_r", "lbm_r", "omnetpp_r", "gemsFDTD", "bwaves_r", "milc", "soplex", "leslie3d"},
	{"mcf_r", "lbm_r", "omnetpp_r", "gemsFDTD"},
	{"mcf_r", "lbm_r", "gemsFDTD", "soplex"},
	{"lbm_r", "omnetpp_r", "gemsFDTD", "soplex"},
	{"omnetpp_r", "gemsFDTD", "soplex", "milc"},
	{"gemsFDTD", "soplex", "milc", "bwaves_r"},
	{"soplex", "milc", "bwaves_r", "leslie3d"},
	{"milc", "bwaves_r", "astar", "cactusBSSN_r"},
	{"leslie3d", "leela_r", "deepsjeng_r", "xchange2_r"},
}

// MixName formats the canonical mix label.
func MixName(i int) string { return fmt.Sprintf("mix%d", i) }

// Generator produces the synthetic instruction stream for one benchmark
// instance. It implements cpu.TraceSource deterministically from a seed.
//
// The stream is drawn a batch ahead of the core (DESIGN.md §2.20): a
// goroutine started per batch fills the next batch of run records from
// the lookahead cursor while the core reads the current one, and Next
// and NextRun only unpack records.
type Generator struct {
	// The consumer's side: the record being read (its count field
	// lowered as plain instructions are taken), the index of the record
	// after it, and the batch both come from. cur is nil until the first
	// record is read, and again after Restore: no fill is then in flight.
	rec uint64
	pos int
	cur *batch

	prof Profile

	base uint64 // physical base of this instance's region

	// record's draw thresholds, precomputed from the profile fractions:
	// src.Below(cut) decides exactly as math/rand's Float64() < p.
	serCut, memCut, streamCut, writeCut rng.Cut

	// The producer's side. next is the batch being filled; done
	// receives once when it is full. fill is the per-batch goroutine's
	// body, bound once so that starting one allocates nothing. ahead is
	// the stream position at the end of the last fill, moved only by
	// the fill in flight. bufs holds both batches, allocated at the
	// first read.
	next  *batch
	done  chan struct{}
	fill  func()
	bufs  *[2]batch
	ahead cursor
}

// cursor is a position in the stream: the draw source and the
// per-stream offsets.
type cursor struct {
	src     rng.Source
	streams []uint64
}

// batch is one fill's run records and the stream position the fill
// started from, as a draw count and the stream cursors.
type batch struct {
	recs    [batchRecs]uint64
	draws   uint64
	streams []uint64
}

// A run record packs one run of the stream into a word: the number of
// plain instructions it opens with in the top byte, then the
// instruction that ends it, if one does, as flags in the low three bits
// and the 8-byte-aligned region offset of a memory instruction between
// them. A run longer than the count field holds continues in the next
// record, and a record without a stop flag ends in no instruction.
const (
	recMem     = 1 << 0
	recWrite   = 1 << 1
	recSer     = 1 << 2
	recStop    = recMem | recSer
	countShift = 56
	maxCount   = 1<<(64-countShift) - 1
	offMask    = (1<<countShift - 1) &^ 7
	batchRecs  = 1024 // records per batch
)

// NewGenerator builds a trace source over the physical region
// [base, base+size). The region should be at least the profile footprint;
// smaller regions wrap (the footprint is clipped).
func NewGenerator(prof Profile, base, size uint64, seed int64) *Generator {
	if size == 0 {
		panic("workload: zero-sized region")
	}
	g := &Generator{prof: prof, base: base, pos: batchRecs, done: make(chan struct{}, 1)}
	g.ahead.src.Reset(seed)
	dep := depFrac
	if prof.DepFrac > 0 {
		dep = prof.DepFrac
	}
	if g.prof.Footprint > size {
		g.prof.Footprint = size
	}
	if g.prof.Footprint > 1<<countShift {
		panic("workload: footprint too large for a run record")
	}
	n := max(prof.Streams, 1)
	for i := 0; i < n; i++ {
		g.ahead.streams = append(g.ahead.streams, g.ahead.src.Uint64()%g.prof.Footprint)
	}
	g.serCut = rng.CutOf(dep)
	g.memCut = rng.CutOf(g.prof.MemRatio)
	g.streamCut = rng.CutOf(g.prof.StreamFrac)
	g.writeCut = rng.CutOf(g.prof.WriteFrac)
	g.fill = func() {
		g.fillBatch(g.next)
		g.done <- struct{}{}
	}
	return g
}

// depFrac is the fraction of instructions heading a dependency chain;
// it bounds compute ILP at roughly 1/depFrac instructions per cycle,
// giving per-core IPC in the 2-3 range for cache-resident work.
const depFrac = 0.35

// fillBatch draws b's records from g.ahead, first marking where they
// start.
func (g *Generator) fillBatch(b *batch) {
	b.draws = g.ahead.src.Draws()
	b.streams = append(b.streams[:0], g.ahead.streams...)
	for i := range b.recs {
		b.recs[i] = g.record(&g.ahead, maxCount)
	}
}

// load makes the next record current, turning to the next batch at the
// end of this one.
func (g *Generator) load() {
	if g.pos == batchRecs {
		g.turn()
	}
	g.rec = g.cur.recs[g.pos]
	g.pos++
}

// turn moves the consumer to the batch being filled, waiting for its
// fill to finish, and starts filling the batch it leaves. The first
// read, with no fill in flight, fills its batch in place instead.
func (g *Generator) turn() {
	if g.cur == nil {
		if g.bufs == nil {
			g.bufs = new([2]batch)
		}
		g.cur, g.next = &g.bufs[0], &g.bufs[1]
		g.fillBatch(g.cur)
	} else {
		<-g.done
		g.cur, g.next = g.next, g.cur
	}
	g.pos = 0
	go g.fill()
}

// Next implements cpu.TraceSource.
func (g *Generator) Next() cpu.Instr {
	for {
		if g.rec >= 1<<countShift {
			g.rec -= 1 << countShift
			return cpu.Instr{}
		}
		r := g.rec
		g.load()
		if r&recStop != 0 {
			return g.stop(r)
		}
	}
}

// NextRun implements cpu.TraceSource: it takes plain instructions from
// the records and splits a record's run at max, so a core interleaving
// NextRun and Next sees one stream.
func (g *Generator) NextRun(max int) (plain int, stop cpu.Instr, ok bool) {
	for {
		n := int(g.rec >> countShift)
		if n >= max-plain {
			g.rec -= uint64(max-plain) << countShift
			return max, cpu.Instr{}, false
		}
		plain += n
		r := g.rec
		g.load()
		if r&recStop != 0 {
			return plain, g.stop(r), true
		}
	}
}

// stop unpacks the instruction that ends record r.
func (g *Generator) stop(r uint64) cpu.Instr {
	if r&recMem == 0 {
		return cpu.Instr{Serialize: true}
	}
	return cpu.Instr{Mem: true, Write: r&recWrite != 0, Serialize: r&recSer != 0, Addr: g.base + r&offMask}
}

// record draws the next run record from c: plain instructions up to
// limit of them, then the memory or serializing instruction that ends
// the run if it comes first. Per instruction it makes exactly the draws
// of the per-instruction recipe: Below(serCut), Below(memCut), then for
// a memory instruction the stream-or-random offset and the store coin.
func (g *Generator) record(c *cursor, limit uint64) uint64 {
	var n uint64
	for ; n < limit; n++ {
		ser := c.src.Below(g.serCut)
		if c.src.Below(g.memCut) {
			return n<<countShift | g.memRecord(c, ser)
		}
		if ser {
			return n<<countShift | recSer
		}
	}
	return n << countShift
}

// memRecord draws the tail of a memory instruction and packs it as a
// record's stop.
func (g *Generator) memRecord(c *cursor, ser bool) uint64 {
	var off uint64
	if c.src.Below(g.streamCut) {
		i := c.src.Intn(len(c.streams))
		c.streams[i] = (c.streams[i] + 8) % g.prof.Footprint
		off = c.streams[i]
	} else {
		off = c.src.Uint64() % g.prof.Footprint
	}
	r := off&^7 | recMem
	if c.src.Below(g.writeCut) {
		r |= recWrite
	}
	if ser {
		r |= recSer
	}
	return r
}

// StallHeavy returns the synthetic profile behind TestStallHeavyAllocFree
// and the stall-window equivalence tests: serialize-heavy (DepFrac 0.9
// caps issue at ~1 instruction/cycle) and almost purely LLC-defeating
// random loads over a 64 MiB footprint (MemRatio 0.85), so a core fills
// its L1 MSHRs within a few cycles of each fill burst and then sits
// provably blocked on memory — the shape that maximizes the
// fully-stalled windows the fast-forward machinery can skip.
func StallHeavy() Profile {
	return Profile{Name: "stall_heavy", Class: High, MemRatio: 0.85, WriteFrac: 0.05,
		Footprint: 64 << 20, StreamFrac: 0.05, Streams: 2, DepFrac: 0.9}
}

// ComputeHeavy returns the synthetic profile behind the host_compute
// benchmark workload (bench/) and the compute-heavy goldens: a high-IPC,
// cache-resident core. The 160 KiB footprint sits entirely inside the
// 256 KiB L2 after warm-up, MemRatio 0.04 makes most width-8 issue
// groups free of memory instructions, and DepFrac 0.1 keeps dependency
// chains long enough that issue runs near full width (per-core IPC in
// the 5-6 range) — the shape whose issue groups are mostly long plain
// runs, which the core issues and retires a run at a time, while still
// touching memory often enough to split runs at memory instructions.
func ComputeHeavy() Profile {
	return Profile{Name: "compute_heavy", Class: Low, MemRatio: 0.04, WriteFrac: 0.2,
		Footprint: 160 << 10, StreamFrac: 0.6, Streams: 2, DepFrac: 0.1}
}

// MixProfiles resolves mix index i to its benchmark profiles.
func MixProfiles(i int) ([]Profile, error) {
	if i < 0 || i >= len(Mixes) {
		return nil, fmt.Errorf("workload: mix index %d out of range [0,%d]", i, len(Mixes)-1)
	}
	var out []Profile
	for _, name := range Mixes[i] {
		p, ok := Profiles[name]
		if !ok {
			return nil, fmt.Errorf("workload: unknown benchmark %q in mix %d", name, i)
		}
		out = append(out, p)
	}
	return out, nil
}
