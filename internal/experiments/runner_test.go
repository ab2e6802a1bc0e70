package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelMatchesSerial proves the sharded runner's determinism
// contract: every figure table is identical whether its points run on
// one worker or eight. Run with -race this also exercises the runner
// for data races between concurrent systems.
func TestParallelMatchesSerial(t *testing.T) {
	serial := QuickOptions()
	serial.Parallel = 1
	parallel := QuickOptions()
	parallel.Parallel = 8

	for _, fig := range []struct {
		name string
		run  func(Options) (any, error)
	}{
		{"fig2", func(o Options) (any, error) { return Fig2(o) }},
		{"fig10", func(o Options) (any, error) { return Fig10(o) }},
		{"fig12", func(o Options) (any, error) { return Fig12(o) }},
		{"fig14", func(o Options) (any, error) { return Fig14(o) }},
		{"power", func(o Options) (any, error) { return Power(o) }},
	} {
		t.Run(fig.name, func(t *testing.T) {
			a, err := fig.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fig.run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s tables differ:\n serial:   %+v\n parallel: %+v", fig.name, a, b)
			}
		})
	}
}

// TestReferenceMatchesFastParallel is the end-to-end equivalence claim:
// a figure produced serially on the reference cycle-by-cycle path is
// byte-identical to the same figure with fast-forward and parallel
// sharding both enabled.
func TestReferenceMatchesFastParallel(t *testing.T) {
	ref := QuickOptions()
	ref.Parallel = 1
	ref.CycleByCycle = true
	fast := QuickOptions()
	fast.Parallel = 8

	a, err := Fig12(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fig12 reference vs fast-parallel differ:\n ref:  %+v\n fast: %+v", a, b)
	}
}

// TestShardedOrderingAndErrors pins the runner's contract directly:
// results arrive in enumeration order and the lowest-index error wins
// regardless of worker count. One worker runs the points in order and
// admits none after the first failure.
func TestShardedOrderingAndErrors(t *testing.T) {
	for _, workers := range []int{1, 8} {
		opt := Options{Parallel: workers}
		vals, err := sharded(opt, 64, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v != i*i {
				t.Fatalf("workers %d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}

		boom := errors.New("boom")
		var ran atomic.Int64
		_, err = sharded(opt, 64, func(i int) (int, error) {
			ran.Add(1)
			if i == 5 {
				return 0, fmt.Errorf("point %d: %w", i, boom)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, boom) || err.Error() != "point 5: boom" {
			t.Fatalf("workers %d: err = %v, want point 5 failure", workers, err)
		}
		if n := ran.Load(); workers == 1 && n != 6 {
			t.Errorf("one worker ran %d points, want 6 (points 0-5, none after the failure)", n)
		}
	}
}

// TestShardedAbortsSubmissionsOnFailure checks that a failing point
// stops new submissions instead of simulating every remaining point.
// Jobs carry a small sleep because real points are seconds-coarse —
// the abort check happens at submission time, so instant jobs can all
// be in flight before the failure lands.
func TestShardedAbortsSubmissionsOnFailure(t *testing.T) {
	var ran atomic.Int64
	_, err := sharded(Options{Parallel: 2}, 64, func(i int) (int, error) {
		ran.Add(1)
		time.Sleep(2 * time.Millisecond)
		if i == 0 {
			return 0, errors.New("first point exploded")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n >= 32 {
		t.Errorf("%d of 64 jobs ran despite the first point failing", n)
	}
}

// TestShardedStats checks the aggregate counters move.
func TestShardedStats(t *testing.T) {
	before := ReadRunnerStats()
	if _, err := sharded(Options{Parallel: 4}, 10, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	after := ReadRunnerStats()
	if after.Jobs-before.Jobs != 10 {
		t.Errorf("jobs delta = %d, want 10", after.Jobs-before.Jobs)
	}
	if after.MaxShards < 4 {
		t.Errorf("max shards = %d, want >= 4", after.MaxShards)
	}
}
