package experiments

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"syscall"
	"testing"

	"chopim/internal/faults"
	"chopim/internal/sim"
)

// crashSweepOpts is the shared budget for the crash-resume test: small
// enough to run in seconds. The crash child and the rerun must build it
// the same way — the cache key fingerprints it.
func crashSweepOpts(dir string) Options {
	opt := QuickOptions()
	opt.WarmCycles, opt.MeasureCycles = 2_000, 28_000
	opt.Parallel = 1
	opt.CacheDir = dir
	return opt
}

// ndaOnlyRow is one point of the crash test's NDA-only sweep.
type ndaOnlyRow struct {
	Op        string
	NDABlocks int64
	BWGBs     float64
}

// crashSweepRows runs the two-point NDA-only sweep the crash test
// interrupts: COPY and DOT with no host cores, through the sharded
// runner, as one cached figure.
func crashSweepRows(opt Options) ([]ndaOnlyRow, error) {
	ops := []string{"copy", "dot"}
	return figCached(opt, "ndaonly-copy+dot", func(opt Options) ([]ndaOnlyRow, error) {
		perRank := 1 << 20
		if opt.Quick {
			perRank = 256 << 10
		}
		return sharded(opt, len(ops), func(i int) (ndaOnlyRow, error) {
			res, err := opt.measure(sim.Default(-1), ops[i], perRank)
			if err != nil {
				return ndaOnlyRow{}, err
			}
			return ndaOnlyRow{Op: ops[i], NDABlocks: res.NDABlocks, BWGBs: res.NDABWGBs}, nil
		})
	})
}

// TestSweepDrainCancel proves the graceful-drain level: stopping
// admission mid-sweep lets the point in hand finish, fails the sweep
// with ErrSweepCanceled (partial results must never read as complete),
// stores the completed points, and a rerun replays them and computes
// only the rest.
func TestSweepDrainCancel(t *testing.T) {
	dir := t.TempDir()
	mkOpt := func(c *Canceler) Options {
		return Options{Parallel: 1, Cancel: c, points: &pointStore{dir: dir, key: "drainfig"}}
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
	if res, jobs := after.Resumed-before.Resumed, after.Jobs-before.Jobs; res != 2 || jobs != 3 {
		t.Errorf("rerun replayed %d stored points and simulated %d, want 2 and 3", res, jobs)
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
// point's cache entry is durable. The parent asserts the process died
// by signal, then reruns on the survivor cache directory and proves
// the stored point replays, the rows are identical to an uninterrupted
// run, and the completed figure leaves no point entries behind.
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
	rows, err := crashSweepRows(crashSweepOpts(dir))
	if err != nil {
		t.Fatalf("rerun after SIGKILL failed: %v", err)
	}
	after := ReadRunnerStats()
	if n := after.Resumed - before.Resumed; n < 1 {
		t.Errorf("rerun replayed %d stored points, want >=1 (recomputed instead?)", n)
	}
	if !reflect.DeepEqual(rows, ref) {
		t.Fatalf("crash+rerun rows diverged from the uninterrupted run:\n want: %+v\n  got: %+v", ref, rows)
	}
	assertNoPoints(t, dir)
}
