// Robustness layer for the fast path: a forward-progress watchdog that
// turns wrong NextEvent bounds into structured LivelockErrors instead of
// silent hangs, per-run cycle and wall-clock deadlines, and the opt-in
// cross-layer invariant checker (Config.CheckInvariants). The detectors
// run at wake granularity — a handful of compares per executed step, not
// per simulated cycle — so the zero-allocs steady-state contract and the
// host-path benchmarks are unaffected with checks off.
package sim

import (
	"fmt"
	"strings"
	"time"

	"chopim/internal/dram"
)

// LivelockError reports that the fast path detected a state from which
// the simulation can make no further progress: NextEvent claims no
// component will ever change state while work is demonstrably pending
// (the bug class a wrong sleep bound produces), or the forward-progress
// watchdog saw Config.WatchdogWindow simulated cycles elapse with no
// retirement, command issue, or NDA progress while work was pending.
type LivelockError struct {
	Cycle  int64  // DRAM cycle at detection
	Reason string // which detector fired and why
	Dump   string // diagnostic state dump (see System.DiagDump)
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: livelock detected at cycle %d: %s\n%s", e.Cycle, e.Reason, e.Dump)
}

// DeadlineError reports that a per-run deadline (Config.MaxCycles or
// Config.MaxWallClock) expired. The system's counters remain readable —
// drivers report partial statistics alongside the error.
type DeadlineError struct {
	Cycle int64
	Kind  string        // "cycle" or "wall-clock"
	Limit time.Duration // wall-clock budget (Kind "wall-clock" only)
}

func (e *DeadlineError) Error() string {
	if e.Kind == "wall-clock" {
		return fmt.Sprintf("sim: wall-clock deadline (%v) exceeded at cycle %d", e.Limit, e.Cycle)
	}
	return fmt.Sprintf("sim: cycle deadline exceeded at cycle %d", e.Cycle)
}

// CanceledError reports that the run's cooperative stop flag
// (Config.Cancel) was observed set. Like a DeadlineError it is sticky
// and leaves every counter readable; unlike one it is an orderly,
// driver-requested stop — the system sits at a quiescent step boundary,
// so the caller may Snapshot it for a durable checkpoint before
// discarding it.
type CanceledError struct {
	Cycle int64
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled at cycle %d", e.Cycle)
}

// InvariantError reports a cross-layer conservation violation found by
// Config.CheckInvariants. It is delivered by panic — a violated
// invariant means simulator state is already corrupt, the same class as
// the internal impossible-state panics — and the experiment runner's
// per-point recovery converts it into a quarantined PointError.
type InvariantError struct {
	Cycle int64
	Msg   string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant violated at cycle %d: %s", e.Cycle, e.Msg)
}

// wallCheckEvery rate-limits the wall-clock deadline's time.Now read to
// one per this many executed steps.
const wallCheckEvery = 256

// robustState is the watchdog/deadline bookkeeping on System. All of it
// is driver-level transience: checkpoints neither save nor restore it.
type robustState struct {
	err       error  // sticky first failure; every later StepFast returns it
	sig       uint64 // progress signature at the last observed progress
	sigCycle  int64  // cycle of the last observed progress
	wallStart time.Time
	wallSeen  uint32 // step counter for the rate-limited time.Now
}

// fail records the run's first failure and returns it; later failures
// are ignored (the first is the diagnosis, the rest are wreckage).
func (s *System) fail(err error) error {
	if s.robust.err == nil {
		s.robust.err = err
	}
	return s.robust.err
}

// RunError returns the sticky failure recorded by the watchdog or
// deadline checks (nil while the run is healthy).
func (s *System) RunError() error { return s.robust.err }

// workPending reports whether any component demonstrably holds
// unfinished work, with a description of the first found. Called only
// on the cold paths (a Never bound, a tripped watchdog window), never
// per wake.
func (s *System) workPending() (bool, string) {
	for i, c := range s.MCs {
		r, w := c.QueueOccupancy()
		if r+w > 0 {
			return true, fmt.Sprintf("controller %d holds %d reads and %d writes", i, r, w)
		}
	}
	if s.Hier != nil {
		if n := s.Hier.PendingMisses(); n > 0 {
			return true, fmt.Sprintf("%d LLC misses in flight", n)
		}
	}
	if s.NDA.Busy() {
		return true, "NDA operations queued"
	}
	if s.RT.CopierBusy() {
		return true, "runtime copier busy"
	}
	return false, ""
}

// progressSig folds every forward-progress counter into one value:
// DRAM commands issued (host and NDA), instructions retired, and
// refreshes. Any genuine progress moves at least one term. O(channels +
// cores) per executed wake.
func (s *System) progressSig() uint64 {
	cnt := s.Mem.Counts()
	sig := uint64(cnt.ACT + cnt.PRE + cnt.RD + cnt.WR + cnt.NDARD + cnt.NDAWR)
	for _, c := range s.MCs {
		sig += uint64(c.Refreshes)
	}
	for _, core := range s.Cores {
		sig += uint64(core.Retired)
	}
	return sig
}

// watchdog runs after each executed fast-path tick when
// Config.WatchdogWindow > 0: if the progress signature has not moved
// for more than the window of simulated cycles while work is pending,
// the run fails with a LivelockError. Windows spent provably idle
// (skipIdle jumps) never execute ticks, so they cannot trip it.
func (s *System) watchdog() error {
	sig := s.progressSig()
	if sig != s.robust.sig {
		s.robust.sig = sig
		s.robust.sigCycle = s.dramCycle
		return nil
	}
	if s.dramCycle-s.robust.sigCycle <= s.Cfg.WatchdogWindow {
		return nil
	}
	if pend, what := s.workPending(); pend {
		return s.fail(&LivelockError{
			Cycle: s.dramCycle,
			Reason: fmt.Sprintf("no forward progress for %d executed-tick cycles while %s",
				s.dramCycle-s.robust.sigCycle, what),
			Dump: s.DiagDump(),
		})
	}
	s.robust.sigCycle = s.dramCycle // idle by design; restart the window
	return nil
}

// DeadlineExceeded checks the per-run deadlines (Config.MaxCycles,
// Config.MaxWallClock) and the cooperative stop flag (Config.Cancel),
// recording a sticky DeadlineError or CanceledError when one fires.
// StepFast consults it once per wake; cycle-by-cycle drivers (the
// reference Tick path) call it directly. The wall-clock read and the
// cancel-flag load are rate-limited to one per wallCheckEvery calls.
func (s *System) DeadlineExceeded() error {
	if s.robust.err != nil {
		return s.robust.err
	}
	if s.Cfg.MaxCycles > 0 && s.dramCycle >= s.Cfg.MaxCycles {
		return s.fail(&DeadlineError{Cycle: s.dramCycle, Kind: "cycle"})
	}
	if s.Cfg.MaxWallClock > 0 || s.Cfg.Cancel != nil {
		if s.robust.wallStart.IsZero() {
			s.robust.wallStart = time.Now()
		}
		s.robust.wallSeen++
		if s.robust.wallSeen%wallCheckEvery == 0 {
			if s.Cfg.Cancel != nil && s.Cfg.Cancel.Load() {
				return s.fail(&CanceledError{Cycle: s.dramCycle})
			}
			if s.Cfg.MaxWallClock > 0 &&
				time.Since(s.robust.wallStart) > s.Cfg.MaxWallClock {
				return s.fail(&DeadlineError{Cycle: s.dramCycle, Kind: "wall-clock", Limit: s.Cfg.MaxWallClock})
			}
		}
	}
	return nil
}

// DiagDump renders the scheduler-relevant state for a livelock report:
// controller queue occupancies and wake horizons, per-domain mailbox
// and NDA bounds, core (ROB-head) status, and the in-flight miss
// count. It is diagnostic text for humans, built only on failure paths.
func (s *System) DiagDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  clock: dram=%d cpu=%d\n", s.dramCycle, s.cpuCycle)
	hz := func(v int64) string {
		if v >= dram.Never {
			return "never"
		}
		return fmt.Sprintf("%d", v)
	}
	for i, c := range s.MCs {
		r, w := c.QueueOccupancy()
		fmt.Fprintf(&b, "  mc[%d]: rq=%d wq=%d overflow=%d next=%s\n",
			i, r, w-c.OverflowLen(), c.OverflowLen(), hz(c.NextEvent(s.dramCycle)))
	}
	for d := range s.doms {
		fmt.Fprintf(&b, "  dom[%d]: outbox=%d ndaNext=%s\n",
			d, len(s.doms[d].outbox), hz(s.NDA.ChannelNextEvent(d, s.dramCycle)))
	}
	fmt.Fprintf(&b, "  rt: copierBusy=%v next=%s\n", s.RT.CopierBusy(), hz(s.RT.NextEvent(s.dramCycle)))
	if s.Hier != nil {
		fmt.Fprintf(&b, "  hier: pendingMisses=%d\n", s.Hier.PendingMisses())
	}
	for i, core := range s.Cores {
		fmt.Fprintf(&b, "  core[%d]: retired=%d blocked=%v probeStalled=%v wake=%s\n",
			i, core.Retired, core.Blocked(), core.ProbeStalled(), hz(core.WakeCycle()))
	}
	return strings.TrimRight(b.String(), "\n")
}

// commitChecked is commit with Config.CheckInvariants armed: the same
// canonical mailbox drain, plus the mailbox-conservation check (commit
// callbacks must not produce new mailbox entries — only a memory-phase
// tick does) and the cross-layer invariant sweep once every layer is
// quiescent.
func (s *System) commitChecked() {
	for d := range s.doms {
		dom := &s.doms[d]
		n0 := len(dom.outbox)
		for i := 0; i < len(dom.outbox); i++ {
			ev := &dom.outbox[i]
			ev.fn(ev.at)
			ev.fn = nil
		}
		if len(dom.outbox) != n0 {
			panic(&InvariantError{Cycle: s.dramCycle,
				Msg: fmt.Sprintf("domain %d mailbox grew from %d to %d entries during commit drain", d, n0, len(dom.outbox))})
		}
		dom.outbox = dom.outbox[:0]
	}
	s.verifyInvariants()
}

// verifyInvariants is the commit-barrier hook behind
// Config.CheckInvariants: it validates the cross-layer conservation
// invariants and panics with an *InvariantError on the first violation
// (see InvariantError for why panic). Checked here, at the end of the
// commit phase, every layer is quiescent: mailboxes drained, fills
// applied, controllers between ticks.
func (s *System) verifyInvariants() {
	if s.Hier != nil {
		if err := s.Hier.CheckInvariants(); err != nil {
			panic(&InvariantError{Cycle: s.dramCycle, Msg: err.Error()})
		}
	}
	for i, c := range s.MCs {
		if err := c.CheckInvariants(); err != nil {
			panic(&InvariantError{Cycle: s.dramCycle, Msg: fmt.Sprintf("controller %d: %v", i, err)})
		}
	}
}
