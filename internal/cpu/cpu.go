// Package cpu models the host processor: simplified out-of-order cores
// with a reorder buffer, load/store queue, and configurable issue/retire
// width (Table II: 4 GHz, fetch/issue width 8, LSQ 64, ROB 224).
//
// Cores are trace-driven. The model captures what the paper's experiments
// depend on: memory-level parallelism bounded by ROB/LSQ/MSHR capacity,
// IPC sensitivity to memory latency and bandwidth, and bursty rank-level
// access patterns. It does not model x86 semantics.
package cpu

import (
	"chopim/internal/cache"
	"chopim/internal/dram"
)

// Instr is one trace instruction. Non-memory instructions execute in one
// cycle; memory instructions access the cache hierarchy. Serialize marks
// the head of a dependency chain: it cannot issue in the same cycle as
// earlier instructions, bounding compute ILP like real dependence chains
// do.
type Instr struct {
	Mem       bool
	Write     bool
	Serialize bool
	Addr      uint64
}

// TraceSource supplies an (endless) instruction stream.
//
// NextRun consumes the same stream a run at a time: it takes
// instructions until it has max plain ones (neither Mem nor Serialize)
// or reaches the first memory or serializing instruction, which it
// returns as stop with ok set. It must take nothing past the max-th
// plain instruction, so calls to Next and NextRun may interleave.
type TraceSource interface {
	Next() Instr
	NextRun(max int) (plain int, stop Instr, ok bool)
}

// Table II core parameters.
const (
	width   = 8   // issue and retire width
	robSize = 224 // reorder buffer entries
	lsqSize = 64  // load/store queue entries
)

// robEntry tracks in-flight instructions: one memory instruction, or a
// run of Count non-memory ones issued in the same cycle, which share a
// DoneAt and so retire exactly as Count single entries would.
type robEntry struct {
	DoneAt  int64 // CPU cycle at which the instructions may retire
	Count   int32 // instructions in the entry (1 for a memory one)
	Pending bool  // completion arrives via callback
	IsLoad  bool
	IsStore bool
}

// Core is one out-of-order core.
type Core struct {
	ID    int
	trace TraceSource
	hier  *cache.Hierarchy

	rob      []robEntry
	doneFns  []func(cpuDone int64) // per-ROB-slot completion callbacks
	head     int
	n        int // instructions in flight (ROB occupancy)
	ents     int // ROB entries in use, from head
	stores   int // stores in flight (LSQ occupancy, with loads)
	loads    int
	stalled  Instr
	hasStall bool

	// Blocked-state tracking for the fast-forward machinery. After a
	// Tick that made zero progress (no retire, no issue) the core is
	// provably stuck until either its ROB head becomes retirable (wake,
	// a CPU cycle; Never while the head's miss is outstanding) or — when
	// probeStall is set — some other component mutates hierarchy or
	// controller state, changing the outcome of the stalled access's
	// retry probe. dirty is set by completion callbacks and forces
	// re-evaluation on the next executed cycle.
	blocked    bool
	probeStall bool
	wake       int64
	dirty      bool

	Retired int64
	Cycles  int64
}

// NewCore builds a core over the shared hierarchy. Completion callbacks
// are created once per ROB slot (each captures only its slot index), so
// issuing a memory instruction allocates nothing; a slot cannot be
// reused while its access is outstanding (a pending entry blocks retire).
// A slot is an entry index, and there are never more entries than
// instructions, so robSize slots always suffice.
func NewCore(id int, trace TraceSource, hier *cache.Hierarchy) *Core {
	c := &Core{ID: id, trace: trace, hier: hier, rob: make([]robEntry, robSize)}
	c.doneFns = make([]func(int64), robSize)
	for i := range c.doneFns {
		e := &c.rob[i]
		c.doneFns[i] = func(cpuDone int64) {
			e.Pending = false
			e.DoneAt = cpuDone
			c.dirty = true
		}
	}
	return c
}

// DoneFn returns the completion callback for one ROB slot, so restored
// MSHR waiters (which record core and slot indices) can be rewired to
// the same pooled closures issue uses.
func (c *Core) DoneFn(slot int) func(int64) { return c.doneFns[slot] }

// IPC returns retired instructions per CPU cycle so far.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Retired) / float64(c.Cycles)
}

// NextEvent returns the earliest CPU cycle >= now at which the core can
// change state, assuming no external state changes (no completion
// callbacks, no hierarchy or controller mutations) before then. An
// active core's next event is the current cycle. A blocked core cannot
// retire before its ROB head resolves and cannot issue before either
// retirement frees ROB/LSQ space or — for a probeStall — the memory
// system changes underneath it; under the static-externals assumption
// the bound is its head wake cycle. Callers that mutate external state
// (the sim package) must re-dispatch the core when they do: ticking a
// blocked core is always exact, only skipping needs this bound.
func (c *Core) NextEvent(now int64) int64 {
	if !c.blocked || c.dirty {
		return now
	}
	return c.wake
}

// Blocked reports whether the core provably cannot make progress until
// its wake cycle or an external state change (see NextEvent).
func (c *Core) Blocked() bool { return c.blocked && !c.dirty }

// ProbeStalled reports that the blocked core's stalled instruction got
// cache.Stall from the hierarchy: its retry outcome depends on cache,
// MSHR and controller-queue state that any component may change, so the
// core must retry on every executed cycle unless the hierarchy vouches
// that the retry stalls again (cache.Hierarchy.StillStalls).
func (c *Core) ProbeStalled() bool { return c.probeStall }

// WakeCycle returns the blocked core's self-known wake bound: the CPU
// cycle its ROB head becomes retirable, or Never while the head's miss
// is still outstanding (the completion callback will set dirty).
func (c *Core) WakeCycle() int64 { return c.wake }

// SkipCycles accounts k provably idle CPU cycles without executing
// them. Exact only for cycles where the core is Blocked with no
// external state change: such a tick increments Cycles, retires
// nothing, and either retries a side-effect-free probe or cannot issue
// at all — so bulk-adding the cycle count reproduces it bit-exactly.
func (c *Core) SkipCycles(k int64) { c.Cycles += k }

// Tick advances the core by one CPU cycle.
func (c *Core) Tick(now int64) {
	c.Cycles++
	r0 := c.Retired
	c.retire(now)
	c.probeStall = false
	// A cycle that neither retired nor issued leaves the core provably
	// stuck until its wake (or an external mutation, for probe stalls).
	if c.issue(now) > 0 || c.Retired != r0 {
		c.blocked, c.dirty = false, false
		return
	}
	c.blocked = true
	c.dirty = false
	c.wake = dram.Never
	if c.n > 0 && !c.rob[c.head].Pending {
		c.wake = c.rob[c.head].DoneAt
	}
}

// retire retires up to width instructions from the ROB head, splitting
// a plain run when the budget ends inside it.
func (c *Core) retire(now int64) {
	for budget := width; budget > 0 && c.ents > 0; {
		e := &c.rob[c.head]
		if e.Pending || e.DoneAt > now {
			return
		}
		k := int(e.Count)
		if k > budget {
			e.Count -= int32(budget)
			c.n -= budget
			c.Retired += int64(budget)
			return
		}
		if e.IsLoad {
			c.loads--
		}
		if e.IsStore {
			c.stores--
		}
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.ents--
		c.n -= k
		c.Retired += int64(k)
		budget -= k
	}
}

// issue places up to width instructions into the ROB and returns how
// many it placed. Plain instructions come from the trace a run at a
// time and enter the ROB as one entry per stretch between memory
// instructions.
func (c *Core) issue(now int64) int {
	issued, run := 0, 0 // run: plain instructions issued since the last entry
	for issued < width && c.n < len(c.rob) {
		in := c.stalled
		if !c.hasStall {
			plain, stop, ok := c.trace.NextRun(min(width-issued, len(c.rob)-c.n))
			run += plain
			issued += plain
			c.n += plain
			if !ok {
				break
			}
			in = stop
		}
		if in.Serialize && issued > 0 {
			// Dependency chain head: wait for the next cycle.
			c.stalled = in
			c.hasStall = true
			break
		}
		if in.Mem {
			c.pushRun(run, now)
			run = 0
			if !c.tryIssue(in, now) {
				c.stalled = in
				c.hasStall = true
				break
			}
		} else {
			// A serializing plain instruction heading the group.
			run++
			c.n++
		}
		c.hasStall = false
		issued++
	}
	c.pushRun(run, now)
	return issued
}

// slot returns the ROB index i entries past the head.
func (c *Core) slot(i int) int {
	i += c.head
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return i
}

// pushRun places an entry for k plain instructions issued at now (and
// already counted in n); k == 0 places nothing.
func (c *Core) pushRun(k int, now int64) {
	if k > 0 {
		c.rob[c.slot(c.ents)] = robEntry{DoneAt: now + 1, Count: int32(k)}
		c.ents++
	}
}

// tryIssue places one memory instruction into the ROB. It returns false
// if a structural hazard requires a retry.
func (c *Core) tryIssue(in Instr, now int64) bool {
	if c.loads+c.stores >= lsqSize {
		return false
	}
	slot := c.slot(c.ents)
	e := &c.rob[slot]
	*e = robEntry{Count: 1}
	res, lat := c.hier.Access(c.ID, in.Addr, in.Write, slot, c.doneFns[slot])
	switch res {
	case cache.Stall:
		c.probeStall = true
		return false
	case cache.Hit:
		e.DoneAt = now + lat
	case cache.Queued:
		e.Pending = true
	}
	if in.Write {
		e.IsStore = true
		c.stores++
	} else {
		e.IsLoad = true
		c.loads++
	}
	c.n++
	c.ents++
	return true
}
