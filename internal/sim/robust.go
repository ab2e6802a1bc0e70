// Robustness layer for the fast path: a livelock detector that turns
// wrong NextEvent bounds into structured LivelockErrors instead of
// silent hangs, a per-run wall-clock deadline, and the opt-in
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
// (the bug class a wrong sleep bound produces).
type LivelockError struct {
	Cycle  int64  // DRAM cycle at detection
	Reason string // which detector fired and why
	Dump   string // diagnostic state dump (see System.DiagDump)
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: livelock detected at cycle %d: %s\n%s", e.Cycle, e.Reason, e.Dump)
}

// DeadlineError reports that the per-run wall-clock deadline
// (Config.MaxWallClock) expired. The system's counters remain readable —
// drivers report partial statistics alongside the error.
type DeadlineError struct {
	Cycle int64
	Limit time.Duration // the wall-clock budget
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: wall-clock deadline (%v) exceeded at cycle %d", e.Limit, e.Cycle)
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

// robustState is the livelock/deadline bookkeeping on System. All of
// it is driver-level transience: checkpoints neither save nor restore
// it.
type robustState struct {
	err       error // sticky first failure; every later StepFast returns it
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

// workPending reports whether any component demonstrably holds
// unfinished work, with a description of the first found. Called only
// on the cold path (a Never bound), never per wake.
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
	return false, ""
}

// DeadlineExceeded checks the per-run wall-clock deadline
// (Config.MaxWallClock), recording a sticky DeadlineError when it
// fires. StepFast consults it once per wake; cycle-by-cycle drivers
// (the reference Tick path) call it directly. The wall-clock read is
// rate-limited to one per wallCheckEvery calls.
func (s *System) DeadlineExceeded() error {
	if s.robust.err != nil {
		return s.robust.err
	}
	if s.Cfg.MaxWallClock > 0 {
		if s.robust.wallStart.IsZero() {
			s.robust.wallStart = time.Now()
		}
		s.robust.wallSeen++
		if s.robust.wallSeen%wallCheckEvery == 0 &&
			time.Since(s.robust.wallStart) > s.Cfg.MaxWallClock {
			return s.fail(&DeadlineError{Cycle: s.dramCycle, Limit: s.Cfg.MaxWallClock})
		}
	}
	return nil
}

// DiagDump renders the scheduler-relevant state for a livelock report:
// controller queue occupancies and wake horizons, the mailbox length,
// per-channel NDA bounds, core (ROB-head) status, and the in-flight
// miss count. It is diagnostic text for humans, built only on failure paths.
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
	fmt.Fprintf(&b, "  outbox=%d\n", len(s.outbox))
	for ch := range s.MCs {
		fmt.Fprintf(&b, "  nda[%d]: next=%s\n", ch, hz(s.NDA.ChannelNextEvent(ch, s.dramCycle)))
	}
	if s.Hier != nil {
		fmt.Fprintf(&b, "  hier: pendingMisses=%d\n", s.Hier.PendingMisses())
	}
	for i, core := range s.Cores {
		fmt.Fprintf(&b, "  core[%d]: retired=%d blocked=%v probeStalled=%v wake=%s\n",
			i, core.Retired, core.Blocked(), core.ProbeStalled(), hz(core.WakeCycle()))
	}
	return strings.TrimRight(b.String(), "\n")
}

// verifyInvariants is the commit-barrier hook behind
// Config.CheckInvariants: it validates the cross-layer conservation
// invariants and panics with an *InvariantError on the first violation
// (see InvariantError for why panic). Checked at the end of the commit
// phase, every layer is quiescent: the mailbox drained, fills applied,
// controllers between ticks.
func (s *System) verifyInvariants() {
	if s.Hier != nil {
		if err := s.Hier.CheckInvariants(); err != nil {
			panic(&InvariantError{Cycle: s.dramCycle, Msg: err.Error()})
		}
	}
	for i, c := range s.MCs {
		if err := c.CheckInvariants(s.dramCycle); err != nil {
			panic(&InvariantError{Cycle: s.dramCycle, Msg: fmt.Sprintf("controller %d: %v", i, err)})
		}
	}
}
