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
type Generator struct {
	prof Profile

	base    uint64 // physical base of this instance's region
	size    uint64
	streams []uint64

	// Next's draw thresholds, precomputed from the profile fractions:
	// src.Below(cut) decides exactly as math/rand's Float64() < p.
	serCut, memCut, streamCut, writeCut rng.Cut

	src rng.Source // last, so its 8 KiB ring does not separate the fields above from its draw counter
}

// NewGenerator builds a trace source over the physical region
// [base, base+size). The region should be at least the profile footprint;
// smaller regions wrap (the footprint is clipped).
func NewGenerator(prof Profile, base, size uint64, seed int64) *Generator {
	if size == 0 {
		panic("workload: zero-sized region")
	}
	g := &Generator{prof: prof, base: base, size: size}
	g.src.Reset(seed)
	dep := depFrac
	if prof.DepFrac > 0 {
		dep = prof.DepFrac
	}
	if g.prof.Footprint > size {
		g.prof.Footprint = size
	}
	n := prof.Streams
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		g.streams = append(g.streams, g.src.Uint64()%g.prof.Footprint)
	}
	g.serCut = rng.CutOf(dep)
	g.memCut = rng.CutOf(g.prof.MemRatio)
	g.streamCut = rng.CutOf(g.prof.StreamFrac)
	g.writeCut = rng.CutOf(g.prof.WriteFrac)
	return g
}

// depFrac is the fraction of instructions heading a dependency chain;
// it bounds compute ILP at roughly 1/depFrac instructions per cycle,
// giving per-core IPC in the 2-3 range for cache-resident work.
const depFrac = 0.35

// Next implements cpu.TraceSource.
func (g *Generator) Next() cpu.Instr {
	ser := g.src.Below(g.serCut)
	if !g.src.Below(g.memCut) {
		return cpu.Instr{Serialize: ser}
	}
	return g.memInstr(ser)
}

// NextRun implements cpu.TraceSource: it makes exactly Next's draws for
// each instruction it consumes, and consumes none past the max-th plain
// one, so a core interleaving NextRun and Next sees one stream.
func (g *Generator) NextRun(max int) (plain int, stop cpu.Instr, ok bool) {
	for plain < max {
		ser := g.src.Below(g.serCut)
		if g.src.Below(g.memCut) {
			return plain, g.memInstr(ser), true
		}
		if ser {
			return plain, cpu.Instr{Serialize: true}, true
		}
		plain++
	}
	return plain, cpu.Instr{}, false
}

// memInstr draws the tail of a memory instruction: stream or random
// offset, then the store coin.
func (g *Generator) memInstr(ser bool) cpu.Instr {
	var off uint64
	if g.src.Below(g.streamCut) {
		i := g.src.Intn(len(g.streams))
		g.streams[i] = (g.streams[i] + 8) % g.prof.Footprint
		off = g.streams[i]
	} else {
		off = g.src.Uint64() % g.prof.Footprint
	}
	return cpu.Instr{
		Mem:       true,
		Write:     g.src.Below(g.writeCut),
		Serialize: ser,
		Addr:      g.base + off&^7,
	}
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
