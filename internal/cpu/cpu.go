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
type TraceSource interface {
	Next() Instr
}

// FunctionalSource is an optional TraceSource extension: NextFunctional
// draws the next instruction from the same distribution as Next through
// a cheaper RNG recipe, for sampled-mode fast-forward where millions of
// instructions retire purely to warm microarchitectural state. Sources
// without it fall back to Next.
type FunctionalSource interface {
	NextFunctional() Instr
}

// Config sizes one core.
type Config struct {
	Width   int // issue and retire width
	ROBSize int
	LSQSize int
}

// DefaultConfig returns the paper's core parameters.
func DefaultConfig() Config { return Config{Width: 8, ROBSize: 224, LSQSize: 64} }

// robEntry tracks one in-flight instruction.
type robEntry struct {
	DoneAt  int64 // CPU cycle at which the instruction may retire
	Pending bool  // completion arrives via callback
	IsLoad  bool
	IsStore bool
}

// Core is one out-of-order core.
type Core struct {
	ID    int
	cfg   Config
	trace TraceSource
	hier  *cache.Hierarchy

	rob      []robEntry
	doneFns  []func(cpuDone int64) // per-ROB-slot completion callbacks
	head, n  int
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
func NewCore(id int, cfg Config, trace TraceSource, hier *cache.Hierarchy) *Core {
	c := &Core{ID: id, cfg: cfg, trace: trace, hier: hier, rob: make([]robEntry, cfg.ROBSize)}
	c.doneFns = make([]func(int64), cfg.ROBSize)
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

// ResetStats clears retirement counters (end of warm-up).
func (c *Core) ResetStats() { c.Retired, c.Cycles = 0, 0 }

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
// cache.Stall from the hierarchy: its retry outcome depends on MSHR and
// controller-queue state, so the core must run on every executed cycle
// (any component may have freed the resource it is waiting on).
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

// RetireFunctional retires n instructions at functional fidelity for
// sampled-mode fast-forward (DESIGN.md §2.11). Instructions are drawn
// in exact trace order, counted into Retired, and memory instructions are handed to warm
// (nil to drop) instead of entering the ROB/LSQ. Cycles do not advance
// here; the caller accounts the jump via SkipCycles. Everything
// in-flight is left frozen: ROB occupancy, outstanding misses (their
// fills complete during the next detailed window), and a parked
// stalled instruction, which retries when detailed execution resumes.
// Returns the number of memory instructions drawn, for warm-traffic
// accounting.
func (c *Core) RetireFunctional(n int64, warm func(addr uint64, write bool)) int64 {
	fs, _ := c.trace.(FunctionalSource)
	var mem int64
	for i := int64(0); i < n; i++ {
		var in Instr
		if fs == nil {
			in = c.trace.Next()
		} else {
			in = fs.NextFunctional()
		}
		if in.Mem {
			mem++
			if warm != nil {
				warm(in.Addr, in.Write)
			}
		}
	}
	c.Retired += n
	return mem
}

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

func (c *Core) retire(now int64) {
	for retired := 0; retired < c.cfg.Width && c.n > 0; retired++ {
		e := &c.rob[c.head]
		if e.Pending || e.DoneAt > now {
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
		c.n--
		c.Retired++
	}
}

// issue places up to Width instructions into the ROB and returns how
// many it placed.
func (c *Core) issue(now int64) int {
	issued := 0
	for ; issued < c.cfg.Width && c.n < len(c.rob); issued++ {
		var in Instr
		if c.hasStall {
			in = c.stalled
		} else {
			in = c.trace.Next()
		}
		if in.Serialize && issued > 0 {
			// Dependency chain head: wait for the next cycle.
			c.stalled = in
			c.hasStall = true
			return issued
		}
		if !c.tryIssue(in, now) {
			c.stalled = in
			c.hasStall = true
			return issued
		}
		c.hasStall = false
	}
	return issued
}

// tryIssue places one instruction into the ROB, accessing memory if
// needed. It returns false if a structural hazard requires a retry.
func (c *Core) tryIssue(in Instr, now int64) bool {
	slot := c.head + c.n
	if slot >= len(c.rob) {
		slot -= len(c.rob)
	}
	e := &c.rob[slot]
	*e = robEntry{}

	if !in.Mem {
		e.DoneAt = now + 1
		c.n++
		return true
	}
	if c.loads+c.stores >= c.cfg.LSQSize {
		return false
	}
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
	return true
}
