package experiments

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"syscall"
	"testing"

	"chopim/internal/faults"
)

// crashSweepOpts is the shared budget for the crash-resume test: small
// enough to run in seconds. The crash child and the resumed run must
// build it the same way — the journal header fingerprints it.
func crashSweepOpts(dir string) Options {
	opt := QuickOptions()
	opt.WarmCycles, opt.MeasureCycles = 2_000, 28_000
	opt.Parallel = 1
	opt.JournalDir = dir
	return opt
}

// crashSweepRows runs the two-point NDA-only sweep the crash test
// interrupts.
func crashSweepRows(opt Options) ([]NDAOnlyRow, error) {
	return NDAOnlySweep(opt, []string{"copy", "dot"})
}

// TestSweepDrainCancel proves the graceful-drain level: stopping
// admission mid-sweep lets the point in hand finish, fails the sweep
// with ErrSweepCanceled (partial results must never read as complete),
// journals the completed points, and a resumed run replays them and
// computes only the rest.
func TestSweepDrainCancel(t *testing.T) {
	dir := t.TempDir()
	mkOpt := func(c *Canceler) Options {
		opt := Options{Parallel: 1, JournalDir: dir, Resume: true, Cancel: c}
		opt.journal = newJournalCtx(opt, "drainfig", "feedfacefeedfacefeedface")
		return opt
	}
	job := func(i int) (int, error) { return 10*i + 1, nil }

	cancel := &Canceler{}
	disarm := faults.ArmAdjust(faults.RunnerPoint, func(v int64) int64 {
		if v == 1 {
			cancel.CancelAdmission()
		}
		return v
	})
	vals, err := sharded(mkOpt(cancel), 5, job)
	disarm()
	if !errors.Is(err, ErrSweepCanceled) {
		t.Fatalf("drained sweep returned %v, want ErrSweepCanceled", err)
	}
	// The point in hand when the cancel landed still finished.
	if vals[0] != 1 || vals[1] != 11 {
		t.Fatalf("completed points = %v, want points 0 and 1 finished", vals[:2])
	}
	if vals[2] != 0 || vals[3] != 0 || vals[4] != 0 {
		t.Fatalf("points admitted after cancel: %v", vals)
	}

	before := ReadRunnerStats()
	vals, err = sharded(mkOpt(nil), 5, job)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if want := []int{1, 11, 21, 31, 41}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("resumed results = %v, want %v", vals, want)
	}
	after := ReadRunnerStats()
	if n := after.Resumed - before.Resumed; n != 2 {
		t.Errorf("resumed %d points from the journal, want 2", n)
	}

	// A pre-canceled sweep admits nothing, with four workers too.
	pre := &Canceler{}
	pre.CancelAdmission()
	opt := Options{Parallel: 4, Cancel: pre}
	if _, err := sharded(opt, 8, job); !errors.Is(err, ErrSweepCanceled) {
		t.Fatalf("pre-canceled parallel sweep returned %v, want ErrSweepCanceled", err)
	}
}

// TestCrashResumeSIGKILL is the crash harness: a subprocess runs the
// sweep with die-after-point=1 armed, so the kernel kills it with
// SIGKILL — no deferred cleanup, no flushes — the instant its first
// point's journal record is durable. The parent asserts the process
// died by signal, then resumes from the survivor directory and proves
// the journaled point replays and the rows are identical to an
// uninterrupted run.
func TestCrashResumeSIGKILL(t *testing.T) {
	if dir := os.Getenv("CHOPIM_CRASH_DIR"); dir != "" {
		// Child payload: never returns normally.
		if err := faults.ArmSpec("die-after-point=1"); err != nil {
			os.Exit(97)
		}
		crashSweepRows(crashSweepOpts(dir))
		os.Exit(98) // the kill never fired
	}
	if testing.Short() {
		t.Skip("subprocess crash harness skipped in -short")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashResumeSIGKILL$")
	cmd.Env = append(os.Environ(), "CHOPIM_CRASH_DIR="+dir)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("crash child did not die (err %v):\n%s", err, out)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crash child exited with %v, want death by SIGKILL:\n%s", err, out)
	}

	ref, err := crashSweepRows(crashSweepOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	before := ReadRunnerStats()
	opt := crashSweepOpts(dir)
	opt.Resume = true
	rows, err := crashSweepRows(opt)
	if err != nil {
		t.Fatalf("resume after SIGKILL failed: %v", err)
	}
	after := ReadRunnerStats()
	if n := after.Resumed - before.Resumed; n < 1 {
		t.Errorf("resume replayed %d journaled points, want >=1 (recomputed instead?)", n)
	}
	if !reflect.DeepEqual(rows, ref) {
		t.Fatalf("crash+resume rows diverged from the uninterrupted run:\n want: %+v\n  got: %+v", ref, rows)
	}
}
