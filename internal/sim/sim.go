// Package sim composes the full simulated system of the paper's
// methodology section: multi-core host with cache hierarchy, per-channel
// FR-FCFS memory controllers, the DDR4 device model, the NDA engine, and
// the Chopim runtime, all advanced on the 1.2 GHz DRAM bus clock with
// cores credited 10/3 CPU cycles per DRAM cycle (4 GHz / 1.2 GHz).
package sim

import (
	"fmt"
	"time"

	"chopim/internal/addrmap"
	"chopim/internal/cache"
	"chopim/internal/cpu"
	"chopim/internal/dram"
	"chopim/internal/faults"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/osmem"
	"chopim/internal/workload"
)

// CPUCyclesPerDRAM expresses the 4 GHz : 1.2 GHz clock ratio as the
// rational 10/3.
const (
	cpuCredit  = 10
	cpuDivisor = 3
)

// DRAMHz is the DDR4-2400 bus clock.
const DRAMHz = 1.2e9

// reservedBanks is the number of banks per rank the Fig 4b mapping
// sets aside for the shared region.
const reservedBanks = 1

// Config assembles one system instance. The DDR4-2400 timing, the
// controller queues, the core sizes and the NDA write buffer are the
// paper's Table II constants of their packages, not settings.
type Config struct {
	Geom dram.Geometry

	// Partitioned selects the proposed Fig 4b mapping with
	// reservedBanks banks per rank set aside for the shared region.
	Partitioned bool

	// MixIndex selects the Table II host application mix; -1 disables
	// host traffic entirely.
	MixIndex int

	// HostProfiles, when non-empty, overrides MixIndex with an explicit
	// per-core workload list (one core per profile). Used by stress and
	// equivalence harnesses that need traffic shapes outside Table II.
	HostProfiles []workload.Profile

	NDA nda.Config

	// MaxBlocksPerInstr is the NDA vector-instruction granularity
	// (cache blocks per operand per instruction; 0 = unlimited).
	MaxBlocksPerInstr int

	Seed int64

	// CheckInvariants validates cross-layer conservation invariants at
	// every commit (MSHR accounting vs the LLC pending table, controller
	// queue occupancy vs bank buckets vs lazy bank keys, key lower-bound
	// soundness against the rescan oracle, the mailbox not growing while
	// it drains). A violation panics with an *InvariantError — corrupted
	// state is not recoverable — which the experiment runner's per-point
	// recovery quarantines. Zero cost when off: the commit path pays one
	// bool check per tick.
	CheckInvariants bool

	// MaxWallClock, when positive, bounds the run's host wall-clock
	// time; checked every few hundred wakes (one time.Now per check).
	// An expired run fails with a DeadlineError, leaving all counters
	// readable for partial statistics.
	MaxWallClock time.Duration
}

// Default returns the paper's baseline configuration running the given
// mix with bank partitioning enabled.
func Default(mix int) Config {
	return Config{
		Geom:        dram.DefaultGeometry(),
		Partitioned: true,
		MixIndex:    mix,
		NDA:         nda.DefaultConfig(),
		Seed:        1,
	}
}

// System is one composed simulation instance.
type System struct {
	Cfg    Config
	Mem    *dram.Mem
	OS     *osmem.OS
	MCs    []*mc.Controller
	Router *mc.Router
	Hier   *cache.Hierarchy
	Cores  []*cpu.Core
	NDA    *nda.Engine
	RT     *ndart.Runtime

	// gens holds each core's trace generator (index-aligned with Cores);
	// retained for checkpointing — the cores themselves treat the
	// generator as an opaque instruction source.
	gens []*workload.Generator

	dramCycle int64
	cpuCycle  int64
	credit    int

	// coreFrom is per-tick scratch for the fast path's core dispatch
	// (tickDue): the first CPU sub-cycle of the tick each core executes
	// unconditionally. Run never consults it.
	coreFrom []int64

	// outbox is the completion mailbox: it collects the callbacks the
	// controllers and rank NDAs would otherwise invoke inline — fills
	// into the shared cache hierarchy, control-launch acknowledgements,
	// NDA op completions — in tick order (MC0, NDA0, MC1, NDA1, ...),
	// for commit to apply after every channel's memory phase of the
	// cycle. The mailbox fixes WHEN a completion lands, which the pinned
	// counters depend on (DESIGN.md §2.5).
	outbox []doneEv

	// robust holds the livelock/deadline bookkeeping (robust.go); not
	// part of checkpointed state.
	robust robustState

	measStartDRAM int64
	measStartCPU  int64
	retiredAtMeas []int64
}

// doneEv is one deferred completion callback and the cycle argument it
// must be invoked with.
type doneEv struct {
	fn func(int64)
	at int64
}

// push appends a deferred completion (the mailbox write side; called
// only from a controller or rank NDA tick).
func (s *System) push(fn func(int64), at int64) {
	s.outbox = append(s.outbox, doneEv{fn: fn, at: at})
}

// New builds and wires a system. An invalid geometry, one with no bank
// left for the host under the partition reservation, or one too large
// for the cache hierarchy's block keys is returned as an error, not a
// panic: every figure point flows through here, and a sweep must be
// able to reject a bad point without dying.
func New(cfg Config) (*System, error) {
	reserved := 0
	if cfg.Partitioned {
		reserved = reservedBanks
	}
	mapper, err := addrmap.New(cfg.Geom, reserved)
	if err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	mem, err := dram.New(cfg.Geom)
	if err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	os, err := osmem.NewOS(mapper)
	if err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Mem: mem, OS: os}

	for ch := 0; ch < cfg.Geom.Channels; ch++ {
		s.MCs = append(s.MCs, mc.NewController(s.Mem, ch))
	}
	s.Router = mc.NewRouter(s.MCs, mapper, func() int64 { return s.dramCycle })

	if cfg.MixIndex >= 0 || len(cfg.HostProfiles) > 0 {
		profs := cfg.HostProfiles
		if len(profs) == 0 {
			var err error
			if profs, err = workload.MixProfiles(cfg.MixIndex); err != nil {
				return nil, err
			}
		}
		hcfg := cache.DefaultHierarchyConfig(len(profs))
		if err := hcfg.CheckSpan(cfg.Geom.Capacity()); err != nil {
			return nil, fmt.Errorf("sim: invalid config: %w", err)
		}
		s.Hier = cache.NewHierarchy(hcfg, s.Router, s)
		for i, p := range profs {
			fp := p.Footprint
			region, err := os.AllocHost(fp)
			if err != nil {
				return nil, fmt.Errorf("sim: core %d footprint: %w", i, err)
			}
			gen := workload.NewGenerator(p, region, fp, cfg.Seed+int64(i)*7919)
			s.gens = append(s.gens, gen)
			s.Cores = append(s.Cores, cpu.NewCore(i, gen, s.Hier))
		}
	}

	s.NDA = nda.NewEngine(cfg.NDA, s.Mem, s.MCs)
	s.RT = ndart.New(os, s.NDA, s.MCs, func() int64 { return s.dramCycle })
	s.RT.MaxBlocksPerInstr = cfg.MaxBlocksPerInstr
	s.retiredAtMeas = make([]int64, len(s.Cores))
	s.coreFrom = make([]int64, len(s.Cores))
	for _, c := range s.MCs {
		c.SetCompletionSink(s.push)
	}
	s.NDA.SetCompletionSink(s.push)
	return s, nil
}

// CPUOfDRAM implements cache.Clock.
func (s *System) CPUOfDRAM(d int64) int64 { return d * cpuCredit / cpuDivisor }

// Now returns the current DRAM cycle.
func (s *System) Now() int64 { return s.dramCycle }

// CPUNow returns the current CPU cycle.
func (s *System) CPUNow() int64 { return s.cpuCycle }

// Tick advances the system one DRAM cycle in three phases (DESIGN.md
// §2.5):
//
//  1. Memory phase: channel by channel, the controller ticks and then
//     its rank NDAs. Completion callbacks (cache fills, launch
//     acknowledgements, NDA op completions) are deferred into the
//     mailbox.
//  2. Commit: the mailbox drains in the order it filled, applying
//     fills to the shared hierarchy (whose writebacks enqueue into any
//     channel's queues), completing handles, and acknowledging
//     launches.
//  3. CPU/cache front-end: the CPU-credit loop ticks cores against the
//     shared hierarchy, exactly as many sub-cycles as the clock ratio
//     owes this DRAM cycle.
//
// Tick is the reference oracle: RunFast must produce bit-identical
// state. Its rank NDAs step every cycle they hold work, never trusting
// a sleep bound, whatever path drove the system before.
func (s *System) Tick() {
	now := s.dramCycle
	for ch, c := range s.MCs {
		c.Tick(now)
		s.NDA.TickChannel(ch, now, false)
	}
	s.commit()
	s.credit += cpuCredit
	for s.credit >= cpuDivisor {
		s.credit -= cpuDivisor
		for _, core := range s.Cores {
			core.Tick(s.cpuCycle)
		}
		s.cpuCycle++
	}
	s.dramCycle++
}

// commit drains the mailbox in the order it filled: the commit phase of
// the cycle. Deferred callbacks may enqueue into any controller (cache
// writebacks, launch packets) and mutate shared front-end state
// (hierarchy fills, runtime handles, launch acknowledgements); they run
// here, after every channel's memory phase, so no channel's tick
// observes another channel's completions of the same cycle. Callbacks
// never produce new mailbox entries (only a controller or NDA tick
// does); under Config.CheckInvariants a drain that grew the mailbox
// panics, and the cross-layer invariants are checked once every layer
// is quiescent.
func (s *System) commit() {
	n0 := len(s.outbox)
	for i := 0; i < len(s.outbox); i++ {
		ev := &s.outbox[i]
		ev.fn(ev.at)
		ev.fn = nil // drop the closure reference for GC
	}
	if s.Cfg.CheckInvariants {
		if len(s.outbox) != n0 {
			panic(&InvariantError{Cycle: s.dramCycle,
				Msg: fmt.Sprintf("mailbox grew from %d to %d entries during commit drain", n0, len(s.outbox))})
		}
		s.verifyInvariants()
	}
	s.outbox = s.outbox[:0]
}

// Run advances n DRAM cycles one tick at a time (the reference path;
// RunFast must produce bit-identical state).
func (s *System) Run(n int64) {
	for i := int64(0); i < n; i++ {
		s.Tick()
	}
}

// dramOfCPU returns the DRAM cycle whose Tick executes CPU cycle w —
// the inverse of the credit arithmetic in Tick and skipIdle. For
// w <= CPUNow() it returns the current DRAM cycle.
func (s *System) dramOfCPU(w int64) int64 {
	if w <= s.cpuCycle {
		return s.dramCycle
	}
	// After k DRAM ticks, (credit + k*cpuCredit) / cpuDivisor CPU ticks
	// have run; the smallest k covering w is the ceiling below.
	need := cpuDivisor*(w-s.cpuCycle+1) - int64(s.credit)
	k := (need + cpuCredit - 1) / cpuCredit
	if k < 1 {
		k = 1
	}
	return s.dramCycle + k - 1
}

// NextEvent returns the earliest DRAM cycle >= Now() at which any
// component can change state. Every cycle in [Now(), NextEvent()) is
// provably idle: executing Tick there would neither issue a command nor
// mutate any observable counter (blocked cores' cycle counters are
// reproduced arithmetically by skipIdle), so the clock may jump over
// the window. Blocked cores contribute their exact wake cycle; a core
// blocked on an outstanding miss or a hierarchy Stall is woken by the
// controller event that resolves it, which the controller bounds
// report. It is a plain minimum over the components' NextEvent calls,
// stopping as soon as the answer is now: each component memoizes its
// own bound (the controller's wake memo, each rank NDA's sleepUntil)
// and revalidates it on every query, so the survey keeps no state and
// is safe to call from anywhere.
func (s *System) NextEvent() int64 {
	now := s.dramCycle
	next := dram.Never
	for _, core := range s.Cores {
		w := core.NextEvent(s.cpuCycle)
		if w <= s.cpuCycle {
			return now
		}
		if w < dram.Never {
			next = min(next, s.dramOfCPU(w))
		}
	}
	for _, c := range s.MCs {
		w := c.NextEvent(now)
		if w <= now {
			return now
		}
		next = min(next, w)
	}
	for ch := range s.MCs {
		w := s.NDA.ChannelNextEvent(ch, now)
		if w <= now {
			return now
		}
		next = min(next, w)
	}
	return next
}

// skipIdle advances the clocks over k provably-idle DRAM cycles without
// ticking, reproducing Tick's CPU-credit arithmetic exactly. Every core
// is blocked across the window (an active core pins NextEvent to now),
// so their cycle counters advance by the skipped CPU tick count —
// exactly what executing the idle ticks would have done.
func (s *System) skipIdle(k int64) {
	s.dramCycle += k
	total := int64(s.credit) + k*cpuCredit
	dcpu := total / cpuDivisor
	s.cpuCycle += dcpu
	s.credit = int(total % cpuDivisor)
	if dcpu > 0 {
		for _, core := range s.Cores {
			core.SkipCycles(dcpu)
		}
	}
}

// tickDue advances the system one DRAM cycle, dispatching only due
// components. Phase order matches Tick, with skips that are
// individually proven no-ops:
//
//   - A controller whose NextEvent lies ahead cannot schedule anything
//     this cycle (the mc.NextEvent contract); only its per-cycle
//     issued-rank scratch must be reset for the NDA hooks. An idle
//     controller (mc.Controller.Idle: empty queues, no drain) is
//     skipped without asking.
//   - TickChannel runs every cycle with its sleep bounds armed, and
//     each rank revalidates or re-derives its own bound against the
//     post-tick state before deciding to step (nda.RankNDA.tick), so a
//     controller tick that mutated the inputs a bound was derived
//     from (a dequeue flipping the oldest-read rank, say) is seen. A host command to a rank steps that rank regardless: its
//     yield (and its StallsHost accounting) happens on that very cycle.
//     Every NDA bound reads only its own channel's controller and
//     timing state, and completions wait in the mailbox until commit.
//   - Blocked-core skipping is argued at the dispatch loop below.
func (s *System) tickDue() {
	now := s.dramCycle
	for ch, c := range s.MCs {
		if !c.Idle() && c.NextEvent(now) <= now {
			c.Tick(now)
		} else {
			c.ClearIssued()
		}
		s.NDA.TickChannel(ch, now, true)
	}
	s.commit()
	s.credit += cpuCredit
	m := int64(0)
	for s.credit >= cpuDivisor {
		s.credit -= cpuDivisor
		m++
	}
	cEnd := s.cpuCycle + m
	// Core dispatch. An active core runs every sub-cycle, exactly as in
	// Tick. A blocked core cannot retire before its wake, and nothing in
	// the CPU loop can wake it earlier (completions land only at
	// commit), so it runs every sub-cycle from its wake on. Before that,
	// a core blocked on ROB or LSQ space cannot issue either, and its
	// sub-cycles reduce to its cycle counter. A probe-stalled core runs
	// such a sub-cycle only when the hierarchy cannot vouch that its
	// retry stalls again (Hierarchy.StillStalls, the Stall contract on
	// Access), asked per core per sub-cycle, so a mutation by an
	// earlier-dispatched core re-probes later cores in the order the
	// reference interleaving would.
	anyDue := false
	for i, core := range s.Cores {
		from := s.cpuCycle
		if core.Blocked() {
			from = min(max(core.WakeCycle(), from), cEnd)
		}
		s.coreFrom[i] = from
		anyDue = anyDue || from < cEnd
	}
	if !anyDue {
		bulk := true
		for i, core := range s.Cores {
			if core.ProbeStalled() && !s.Hier.StillStalls(i) {
				// Leave the core to the sub-cycle probe branch below.
				bulk = false
				break
			}
		}
		if bulk {
			// No core runs this window at all: no mid-window mutation
			// is possible, every sub-cycle of every core is a proven
			// no-op, and the whole window reduces to arithmetic.
			for _, core := range s.Cores {
				core.SkipCycles(m)
			}
			s.cpuCycle = cEnd
			s.dramCycle++
			return
		}
	}
	for cc := s.cpuCycle; cc < cEnd; cc++ {
		for i, core := range s.Cores {
			if cc >= s.coreFrom[i] {
				core.Tick(cc)
				continue
			}
			if core.ProbeStalled() && !s.Hier.StillStalls(i) {
				core.Tick(cc)
				if !core.Blocked() || !core.ProbeStalled() {
					// Progressed or changed kind: reference
					// semantics for the rest of the window.
					s.coreFrom[i] = cc + 1
				}
				continue
			}
			core.SkipCycles(1)
		}
	}
	s.cpuCycle = cEnd
	s.dramCycle++
}

// StepFast advances the system to its next event (clamped to limit) and
// executes one wake-dispatched tick there if the event lies before
// limit. It always makes progress; state after reaching any cycle is
// bit-identical to ticking every cycle.
//
// A non-nil return reports a robustness failure — a LivelockError from
// the Never-with-pending-work detector, or a DeadlineError from the
// wall-clock deadline (Config.MaxWallClock) — and is sticky:
// every subsequent call returns the same error. On the livelock path
// the clock still advances to limit (the wake bound was wrong, so the
// only exact continuation is the idle skip the bound claims), keeping
// error-ignoring drivers terminating with unchanged state; on the
// deadline path the clock does not advance past the deadline.
func (s *System) StepFast(limit int64) error {
	if s.robust.err != nil {
		return s.robust.err
	}
	if s.Cfg.MaxWallClock > 0 {
		if err := s.DeadlineExceeded(); err != nil {
			return err
		}
	}
	next := s.NextEvent()
	if faults.Active() {
		next = faults.Adjust(faults.SimNextEvent, next)
	}
	if next >= dram.Never {
		if pend, what := s.workPending(); pend {
			s.fail(&LivelockError{
				Cycle:  s.dramCycle,
				Reason: "NextEvent reports Never while " + what,
				Dump:   s.DiagDump(),
			})
		}
	}
	if next > s.dramCycle {
		if next > limit {
			next = limit
		}
		s.skipIdle(next - s.dramCycle)
	}
	if s.dramCycle < limit {
		s.tickDue()
	}
	return s.robust.err
}

// RunFast advances n DRAM cycles, jumping the clock over idle windows.
// It stops early and returns the failure when the livelock detector or
// a deadline fires (see StepFast).
func (s *System) RunFast(n int64) error {
	end := s.dramCycle + n
	for s.dramCycle < end {
		if err := s.StepFast(end); err != nil {
			return err
		}
	}
	return nil
}

// Await runs until every handle completes, up to maxCycles additional
// cycles, fast-forwarding over idle windows (handles can only change
// state on a tick, so checking after each executed tick is exact). It returns an error on timeout.
func (s *System) Await(maxCycles int64, hs ...*ndart.Handle) error {
	deadline := s.dramCycle + maxCycles
	for s.dramCycle < deadline {
		done := true
		for _, h := range hs {
			if !h.Done() {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if err := s.StepFast(deadline); err != nil {
			return err
		}
	}
	return fmt.Errorf("sim: Await timed out after %d cycles", maxCycles)
}

// BeginMeasurement snapshots counters at the end of warm-up.
func (s *System) BeginMeasurement() {
	s.measStartDRAM = s.dramCycle
	s.measStartCPU = s.cpuCycle
	for i, c := range s.Cores {
		s.retiredAtMeas[i] = c.Retired
	}
}

// HostIPC returns the aggregate (summed) host IPC since measurement
// began, matching the paper's per-figure host-performance metric.
func (s *System) HostIPC() float64 {
	cycles := s.cpuCycle - s.measStartCPU
	if cycles <= 0 {
		return 0
	}
	var retired int64
	for i, c := range s.Cores {
		retired += c.Retired - s.retiredAtMeas[i]
	}
	return float64(retired) / float64(cycles)
}

// MeasuredCycles returns DRAM cycles since measurement began.
func (s *System) MeasuredCycles() int64 { return s.dramCycle - s.measStartDRAM }

// Seconds converts DRAM cycles to seconds.
func Seconds(cycles int64) float64 { return float64(cycles) / DRAMHz }

// NDABandwidthGBs returns achieved NDA bandwidth in GB/s over the
// measurement window. Callers should snapshot engine bytes at
// BeginMeasurement time if NDAs ran during warm-up.
func (s *System) NDABandwidthGBs(bytes int64) float64 {
	sec := Seconds(s.MeasuredCycles())
	if sec <= 0 {
		return 0
	}
	return float64(bytes) / sec / 1e9
}

// NDAUtilization returns the fraction of host-idle rank bandwidth the
// NDAs captured during the measurement window: NDA data-bus cycles
// divided by cycles where ranks were not serving host traffic. busyHost
// and ndaBlocks are deltas over the window.
func (s *System) NDAUtilization(hostBusyCycles, ndaBlocks int64) float64 {
	ranks := int64(s.Cfg.Geom.Channels * s.Cfg.Geom.Ranks)
	idle := s.MeasuredCycles()*ranks - hostBusyCycles
	if idle <= 0 {
		return 0
	}
	used := ndaBlocks * dram.BL
	u := float64(used) / float64(idle)
	if u > 1 {
		u = 1
	}
	return u
}

// HostBusyCycles sums rank busy cycles across all controllers.
func (s *System) HostBusyCycles() int64 {
	var total int64
	for _, c := range s.MCs {
		for i := range c.IdleHists {
			total += c.IdleHists[i].BusyCycles()
		}
	}
	return total
}

// NDABlocks returns total NDA column accesses (read+write blocks).
func (s *System) NDABlocks() int64 {
	st := s.NDA.TotalStats()
	return st.BlocksRead + st.BlocksWritten
}
