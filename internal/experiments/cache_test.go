package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"chopim/internal/faults"
	"chopim/internal/sim"
)

// resetHostOnlyMemo forgets every memoized host-only outcome, so the
// next request for each point simulates it again.
func resetHostOnlyMemo() {
	hostOnlyMemo.Lock()
	hostOnlyMemo.m = map[string]*hostOnlySlot{}
	hostOnlyMemo.Unlock()
}

// TestFigureCacheRoundTrip proves the content-addressed cache replays a
// figure exactly: the second run with the same options returns identical
// rows without simulating, at least 10x faster than the run that
// simulated them, and a changed budget misses (different key).
func TestFigureCacheRoundTrip(t *testing.T) {
	opt := QuickOptions()
	opt.WarmCycles, opt.MeasureCycles = 2_000, 8_000
	opt.CacheDir = t.TempDir()

	// Fig 2's points are host-only: with their outcomes memoized (by an
	// earlier test, -count pass or run) a run would skip simulating
	// them, so each run starts with an empty memo.
	resetHostOnlyMemo()
	before := ReadRunnerStats()
	start := time.Now()
	first, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	generate := time.Since(start)
	mid := ReadRunnerStats()
	if hits, misses := mid.CacheHits-before.CacheHits, mid.CacheMisses-before.CacheMisses; hits != 0 || misses != 1 {
		t.Fatalf("first run: %d hits, %d misses; want 0, 1", hits, misses)
	}
	resetHostOnlyMemo()
	start = time.Now()
	second, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	replay := time.Since(start)
	after := ReadRunnerStats()
	if hits := after.CacheHits - mid.CacheHits; hits != 1 {
		t.Fatalf("second run: %d cache hits; want 1", hits)
	}
	if jobs := after.Jobs - mid.Jobs; jobs != 0 {
		t.Fatalf("second run simulated %d points; want 0 (cache hit)", jobs)
	}
	if replay*10 > generate {
		t.Fatalf("cache hit took %v against %v to generate; want at least 10x faster", replay, generate)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached rows differ from generated rows:\n gen: %+v\n hit: %+v", first, second)
	}

	// A different measurement budget must key differently.
	opt2 := opt
	opt2.MeasureCycles = 9_000
	if opt2.cacheKey("fig2") == opt.cacheKey("fig2") {
		t.Fatal("cache key ignores MeasureCycles")
	}
	// The worker count must NOT key differently (results are identical).
	opt3 := opt
	opt3.Parallel = 7
	if opt3.cacheKey("fig2") != opt.cacheKey("fig2") {
		t.Fatal("cache key depends on the worker count")
	}
}

// TestResumePointStore interrupts a sweep (an injected point failure)
// and proves a rerun on the same cache directory replays the completed
// points and recomputes only the rest, with the final rows identical to
// an uninterrupted run and no point entries left once the figure is
// stored.
func TestResumePointStore(t *testing.T) {
	opt := QuickOptions()
	opt.CacheDir = t.TempDir()
	opt.Parallel = 1 // deterministic completion order up to the failure

	boom := errors.New("injected point failure")
	n := 6
	gen := func(fail int) func(Options) ([]int, error) {
		return func(opt Options) ([]int, error) {
			return sharded(opt, n, func(i int) (int, error) {
				if i == fail {
					return 0, boom
				}
				return 100 + i, nil
			})
		}
	}
	if _, err := figCached(opt, "resume-test", gen(4)); !errors.Is(err, boom) {
		t.Fatalf("interrupted run: got %v, want injected failure", err)
	}
	before := ReadRunnerStats()
	rows, err := figCached(opt, "resume-test", gen(-1))
	if err != nil {
		t.Fatal(err)
	}
	after := ReadRunnerStats()
	if res := after.Resumed - before.Resumed; res != 4 {
		t.Fatalf("resumed %d points; want 4 (points 0-3 completed before the failure)", res)
	}
	if jobs := after.Jobs - before.Jobs; jobs != 2 {
		t.Fatalf("resumed run simulated %d points; want 2", jobs)
	}
	want := []int{100, 101, 102, 103, 104, 105}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("resumed rows = %v, want %v", rows, want)
	}
	// The completed figure leaves its entry and removes its points.
	assertNoPoints(t, opt.CacheDir)
	if figs, _ := filepath.Glob(filepath.Join(opt.CacheDir, "resume-test-*.json")); len(figs) != 1 {
		t.Fatalf("figure entries = %v, want one", figs)
	}
}

// assertNoPoints fails the test if dir holds any point store.
func assertNoPoints(t *testing.T, dir string) {
	t.Helper()
	if left, _ := filepath.Glob(filepath.Join(dir, "*.points")); len(left) != 0 {
		t.Fatalf("point stores left after the figure completed: %v", left)
	}
}

// TestUnmarshalablePointNotStored: a point whose result cannot be
// marshaled (a NaN) still comes back in the sweep's results. It is not
// stored, its neighbours are, and a rerun recomputes exactly it.
func TestUnmarshalablePointNotStored(t *testing.T) {
	dir := t.TempDir()
	mkOpt := func() Options { return Options{points: &pointStore{dir: dir, key: "nanfig"}} }
	job := func(i int) (float64, error) {
		if i == 1 {
			return math.NaN(), nil
		}
		return float64(i) + 0.5, nil
	}
	check := func(vals []float64, err error) {
		t.Helper()
		if err != nil || len(vals) != 3 || vals[0] != 0.5 || !math.IsNaN(vals[1]) || vals[2] != 2.5 {
			t.Fatalf("sweep = %v, %v; want [0.5 NaN 2.5]", vals, err)
		}
	}
	check(sharded(mkOpt(), 3, job))
	for i, want := range []bool{true, false, true} {
		_, err := os.Stat(filepath.Join(dir, fmt.Sprintf("0-3-%d.json", i)))
		if stored := err == nil; stored != want {
			t.Errorf("point %d stored = %v, want %v", i, stored, want)
		}
	}

	before := ReadRunnerStats()
	check(sharded(mkOpt(), 3, job))
	after := ReadRunnerStats()
	if res, jobs := after.Resumed-before.Resumed, after.Jobs-before.Jobs; res != 2 || jobs != 1 {
		t.Fatalf("rerun replayed %d points and simulated %d; want 2 and 1", res, jobs)
	}
}

// TestHostOnlyMemo proves host-only figure points share one simulation:
// a quick Fig 11 after a quick Fig 2 reuses Fig 2's outcomes and still
// reads what a freshly built host-only system measures; concurrent
// requests share one run; a failed request is not memoized; and every
// checked request (invariants, cycle-by-cycle, an armed fault) simulates
// afresh to the same outcome.
func TestHostOnlyMemo(t *testing.T) {
	resetHostOnlyMemo()
	reuses := func() int64 { return ReadRunnerStats().HostOnlyReuses }

	opt := QuickOptions()
	if _, err := Fig2(opt); err != nil {
		t.Fatal(err)
	}
	before := reuses()
	rows, err := Fig11(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := reuses() - before; got != int64(len(rows)) {
		t.Fatalf("Fig 11 after Fig 2 reused %d host-only outcomes; want %d", got, len(rows))
	}
	for mix, r := range rows {
		s, err := opt.newSystem(sim.Default(mix))
		if err != nil {
			t.Fatal(err)
		}
		res, err := measureConcurrent(s, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.IdealHostIPC != res.HostIPC {
			t.Errorf("%s: IdealHostIPC %v, fresh host-only run %v", r.Mix, r.IdealHostIPC, res.HostIPC)
		}
	}

	// A budget no other request uses, so each step below starts cold.
	small := opt
	small.WarmCycles, small.MeasureCycles = 3_000, 10_000
	cfg := sim.Default(5)

	// A failed request returns its error and leaves the slot empty.
	late := small
	late.PointTimeout = time.Nanosecond
	var de *sim.DeadlineError
	if _, err := late.hostOnly(cfg); !errors.As(err, &de) {
		t.Fatalf("1ns deadline: got %v, want a DeadlineError", err)
	}

	// Concurrent requests for one key wait for the first.
	const n = 4
	outs := make([]hostOnlyOutcome, n)
	before = reuses()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if outs[i], err = small.hostOnly(cfg); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := reuses() - before; got != n-1 {
		t.Fatalf("%d concurrent requests after a failed one reused %d outcomes; want %d", n, got, n-1)
	}
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("concurrent request %d got %+v, want %+v", i, outs[i], outs[0])
		}
	}

	checked := []struct {
		name string
		arm  func(*Options) (disarm func())
	}{
		{"check-invariants", func(o *Options) func() { o.CheckInvariants = true; return func() {} }},
		{"cycle-by-cycle", func(o *Options) func() { o.CycleByCycle = true; return func() {} }},
		{"armed-fault", func(*Options) func() { return faults.ArmAdjust("memo-test-noop", func(v int64) int64 { return v }) }},
	}
	for _, c := range checked {
		o := small
		disarm := c.arm(&o)
		before := reuses()
		out, err := o.hostOnly(cfg)
		disarm()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if reuses() != before {
			t.Errorf("%s: served from the memo", c.name)
		}
		if out != outs[0] {
			t.Errorf("%s: got %+v, want %+v", c.name, out, outs[0])
		}
	}
}
