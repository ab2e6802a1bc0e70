package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"chopim/internal/faults"
	"chopim/internal/sim"
)

// TestPanicQuarantinedKeepGoing is the core isolation claim: a point
// that panics is recovered into a quarantined PointError, every other
// point completes with a valid result, and the failure surfaces as a
// SweepError rather than a process crash.
func TestPanicQuarantinedKeepGoing(t *testing.T) {
	before := ReadRunnerStats()
	vals, err := sharded(Options{Parallel: 4, KeepGoing: true}, 16, func(i int) (int, error) {
		if i == 7 {
			panic("simulated internal corruption")
		}
		return i * i, nil
	})
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want SweepError", err)
	}
	if len(se.Failures) != 1 || se.Failures[0].Index != 7 || se.Failures[0].Panic == nil {
		t.Fatalf("failures = %+v, want exactly point 7 quarantined after panic", se.Failures)
	}
	if len(se.Failures[0].Stack) == 0 {
		t.Error("quarantined point carries no stack trace")
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("error text %q does not say quarantined", err.Error())
	}
	for i, v := range vals {
		want := i * i
		if i == 7 {
			want = 0 // quarantined: zero value
		}
		if v != want {
			t.Errorf("point %d = %d, want %d (healthy points must complete)", i, v, want)
		}
	}
	after := ReadRunnerStats()
	if after.Panics-before.Panics != 1 || after.Quarantined-before.Quarantined != 1 {
		t.Errorf("panic/quarantine counters moved by %d/%d, want 1/1",
			after.Panics-before.Panics, after.Quarantined-before.Quarantined)
	}
}

// TestPanicFailFastStillRecovers: without KeepGoing the sweep aborts,
// but the panic is still converted to an error — never a crash.
func TestPanicFailFastStillRecovers(t *testing.T) {
	_, err := sharded(Options{Parallel: 2}, 8, func(i int) (int, error) {
		if i == 0 {
			panic("boom")
		}
		return i, nil
	})
	var pe *PointError
	if !errors.As(err, &pe) || pe.Panic == nil || pe.Index != 0 {
		t.Fatalf("got %v, want point 0 PointError carrying the panic", err)
	}
}

// TestInjectedPanicViaRegistry drives the same path through the fault
// registry (what the CLI's -inject panic-point=K arms).
func TestInjectedPanicViaRegistry(t *testing.T) {
	if err := faults.ArmSpec("panic-point=3"); err != nil {
		t.Fatal(err)
	}
	defer disarmAll(t)
	vals, err := sharded(Options{Parallel: 2, KeepGoing: true}, 6, func(i int) (int, error) {
		return i + 100, nil
	})
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 || se.Failures[0].Index != 3 {
		t.Fatalf("got %v, want SweepError quarantining point 3", err)
	}
	for i, v := range vals {
		if i != 3 && v != i+100 {
			t.Errorf("point %d = %d, want %d", i, v, i+100)
		}
	}
}

// TestDeterministicErrorNotRetried: plain simulation errors are
// deterministic; the runner gives every point exactly one attempt.
func TestDeterministicErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("deterministic model error")
	_, err := sharded(Options{Parallel: 1}, 1, func(i int) (int, error) {
		calls.Add(1)
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the model error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("deterministic failure attempted %d times, want 1", n)
	}
}

// TestDeadlineCounted: a point failing with a sim DeadlineError is
// classified as a timeout and attempted once.
func TestDeadlineCounted(t *testing.T) {
	before := ReadRunnerStats()
	var calls atomic.Int64
	_, err := sharded(Options{Parallel: 1, KeepGoing: true}, 2, func(i int) (int, error) {
		if i == 1 {
			calls.Add(1)
			return 0, &sim.DeadlineError{Cycle: 123}
		}
		return i, nil
	})
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("got %v, want SweepError with the timed-out point", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("timed-out point attempted %d times, want 1 (deadline would expire again)", n)
	}
	after := ReadRunnerStats()
	if after.Timeouts-before.Timeouts != 1 {
		t.Errorf("timeout counter moved by %d, want 1", after.Timeouts-before.Timeouts)
	}
}

// TestPointTimeoutEndToEnd runs a real simulation point under an
// unmeetable wall-clock deadline and checks the structured failure
// propagates out of measureConcurrent.
func TestPointTimeoutEndToEnd(t *testing.T) {
	opt := QuickOptions()
	opt.PointTimeout = 1 // 1ns: expires at the first rate-limit stride
	s, err := opt.newSystem(sim.Default(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = measureConcurrent(s, nil, opt)
	var de *sim.DeadlineError
	if !errors.As(err, &de) || de.Limit != opt.PointTimeout {
		t.Fatalf("got %v, want a DeadlineError for the %v budget", err, opt.PointTimeout)
	}
}

// TestQuarantinedPointNotStored: a panicking point must never be
// stored — a rerun recomputes exactly it, and once the fault is gone
// the rerun's table is byte-identical to a clean run.
func TestQuarantinedPointNotStored(t *testing.T) {
	dir := t.TempDir()
	fail := true
	job := func(i int) (int, error) {
		if i == 2 && fail {
			panic("transient corruption")
		}
		return i*i + 1, nil
	}
	mkOpt := func() Options {
		return Options{Parallel: 2, KeepGoing: true, points: &pointStore{dir: dir, key: "qfig"}}
	}
	_, err := sharded(mkOpt(), 5, job)
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 || se.Failures[0].Index != 2 {
		t.Fatalf("got %v, want point 2 quarantined", err)
	}

	// The store must hold every healthy point and not point 2.
	for i := 0; i < 5; i++ {
		_, err := os.Stat(filepath.Join(dir, fmt.Sprintf("0-5-%d.json", i)))
		if stored := err == nil; stored != (i != 2) {
			t.Fatalf("point %d stored = %v (point 2 is quarantined)", i, stored)
		}
	}

	// Fault cleared: the rerun replays the healthy points and
	// recomputes only the quarantined one.
	fail = false
	before := ReadRunnerStats()
	vals, err := sharded(mkOpt(), 5, job)
	if err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	want := []int{1, 2, 5, 10, 17}
	if !reflect.DeepEqual(vals, want) {
		t.Fatalf("rerun results = %v, want %v", vals, want)
	}
	after := ReadRunnerStats()
	if res, jobs := after.Resumed-before.Resumed, after.Jobs-before.Jobs; res != 4 || jobs != 1 {
		t.Errorf("rerun replayed %d points and simulated %d, want 4 and 1", res, jobs)
	}
}

// disarmAll clears hooks ArmSpec installed (it returns no disarm
// closures) so tests stay independent.
func disarmAll(t *testing.T) {
	t.Helper()
	faults.DisarmAll()
	if faults.Active() {
		t.Fatal("fault registry still armed after DisarmAll")
	}
}
