package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"chopim/internal/dram"
	"chopim/internal/faults"
)

// TestLivelockDetectedOnStuckHorizon injects the stuck-horizon bug class
// (NextEvent reporting Never while work is pending) and asserts the fast
// path fails with a structured LivelockError carrying a diagnostic dump
// instead of spinning or silently jumping to the end of the run.
func TestLivelockDetectedOnStuckHorizon(t *testing.T) {
	disarm := faults.ArmAdjust(faults.SimNextEvent, func(v int64) int64 {
		if v >= 2000 {
			return dram.Never
		}
		return v
	})
	defer disarm()
	s, err := New(Default(0))
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunFast(50_000)
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("RunFast under stuck horizon: got %v, want LivelockError", err)
	}
	if le.Cycle < 2000 {
		t.Errorf("livelock reported at cycle %d, before the injected threshold", le.Cycle)
	}
	if le.Dump == "" || !strings.Contains(le.Dump, "mc[0]:") || !strings.Contains(le.Dump, "core[0]:") {
		t.Errorf("diagnostic dump missing scheduler state:\n%s", le.Dump)
	}
	if !strings.Contains(le.Reason, "holds") && !strings.Contains(le.Reason, "in flight") {
		t.Errorf("reason does not describe the pending work: %q", le.Reason)
	}
	// The failure is sticky: every later step reports the same error
	// rather than resuming a corrupt run.
	if err2 := s.StepFast(s.Now() + 1); err2 != err {
		t.Errorf("post-failure StepFast: got %v, want the sticky %v", err2, err)
	}
}

// TestWallClockDeadline bounds a run by host time and checks the
// structured error plus readable partial state.
func TestWallClockDeadline(t *testing.T) {
	cfg := Default(0)
	cfg.MaxWallClock = time.Nanosecond // expires immediately; detected at the rate-limit stride
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunFast(5_000_000)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want DeadlineError", err)
	}
	if de.Limit != time.Nanosecond || de.Cycle != s.Now() {
		t.Errorf("got Limit=%v Cycle=%d, want 1ns at the stop cycle %d", de.Limit, de.Cycle, s.Now())
	}
	if s.Now() >= 5_000_000 {
		t.Error("run completed despite an expired wall-clock budget")
	}
	// Partial stats stay readable after the failure.
	if s.Mem.Counts().RD == 0 {
		t.Error("no commands issued before the deadline — partial stats lost?")
	}
}

// TestInvalidConfigErrors pins the constructor's error path for the
// settable value that can be invalid: a rank count that is not a power
// of two.
func TestInvalidConfigErrors(t *testing.T) {
	mut := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad-geometry", func(c *Config) { c.Geom.Ranks = 3 }, "geometry"},
	}
	for _, m := range mut {
		t.Run(m.name, func(t *testing.T) {
			cfg := Default(0)
			m.mut(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), "invalid config") || !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not identify itself as a %s config error", err, m.want)
			}
		})
	}
}

// TestMailboxConservationInvariant plants a commit callback that grows
// the mailbox mid-drain — forbidden: only memory-phase ticks produce
// completions — and asserts the checked commit panics with an
// *InvariantError.
func TestMailboxConservationInvariant(t *testing.T) {
	cfg := Default(0)
	cfg.CheckInvariants = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.push(func(int64) {
		s.push(func(int64) {}, 0) // illegal: commit produced new work
	}, 0)
	defer func() {
		r := recover()
		ie, ok := r.(*InvariantError)
		if !ok {
			t.Fatalf("recovered %v, want *InvariantError", r)
		}
		if !strings.Contains(ie.Msg, "mailbox grew") {
			t.Errorf("unexpected invariant message: %q", ie.Msg)
		}
	}()
	s.commit()
}

// TestDeadlineErrorOnTickPath checks the reference-path contract: Tick
// never consults deadlines itself, so cycle-by-cycle drivers poll
// DeadlineExceeded. A 1 ns budget has expired by the first rate-limited
// clock read, the wallCheckEvery-th call, and from then on every call
// returns the same sticky error.
func TestDeadlineErrorOnTickPath(t *testing.T) {
	cfg := Default(0)
	cfg.MaxWallClock = time.Nanosecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for calls := 1; ; calls++ {
		if err := s.DeadlineExceeded(); err != nil {
			var de *DeadlineError
			if !errors.As(err, &de) || de.Limit != time.Nanosecond {
				t.Fatalf("got %v, want a 1ns DeadlineError", err)
			}
			if calls != wallCheckEvery || de.Cycle != wallCheckEvery-1 {
				t.Fatalf("fired on call %d at cycle %d, want call %d at cycle %d",
					calls, de.Cycle, wallCheckEvery, wallCheckEvery-1)
			}
			if again := s.DeadlineExceeded(); again != err {
				t.Fatalf("second poll returned %v, want the sticky %v", again, err)
			}
			break
		}
		s.Tick()
		if calls > 2*wallCheckEvery {
			t.Fatal("deadline never reported on the reference path")
		}
	}
}
