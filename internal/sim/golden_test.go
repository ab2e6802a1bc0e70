package sim

import (
	"fmt"
	"testing"

	"chopim/internal/ndart"
)

// goldenBudget is deliberately short: long enough for every subsystem
// (caches, write drains, NDA batches, launch packets) to reach steady
// activity, short enough to run on every test invocation.
const (
	goldenWarm    = 5_000
	goldenMeasure = 20_000
)

// goldenStats reduces one fixed-seed run to the headline counters the
// figures are built from. All arithmetic is integer or a single IEEE
// division, so the values are bit-stable across platforms. fast selects
// the drive path; both must produce the same string. Optional config
// mutators let variant suites (invariant checking) pin the same goldens
// under observation-only knobs.
func goldenStats(t *testing.T, w ffWorkload, fast bool, muts ...func(*Config)) string {
	t.Helper()
	cfg := w.cfg()
	for _, mut := range muts {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var it func() (*ndart.Handle, error)
	if w.app != nil {
		if it, err = w.app(s); err != nil {
			t.Fatal(err)
		}
	}
	var h *ndart.Handle
	relaunch := func() {
		if it == nil {
			return
		}
		if h == nil || h.Done() {
			if h, err = it(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func(cycles int64) {
		relaunch()
		end := s.Now() + cycles
		for s.Now() < end {
			if fast {
				s.StepFast(end)
			} else {
				s.Tick()
			}
			relaunch()
		}
	}
	run(goldenWarm)
	s.BeginMeasurement()
	busy0, blocks0 := s.HostBusyCycles(), s.NDABlocks()
	run(goldenMeasure)
	return fmt.Sprintf("ipc=%v blocks=%d busy=%d rd=%d wr=%d ndard=%d ndawr=%d",
		s.HostIPC(), s.NDABlocks()-blocks0, s.HostBusyCycles()-busy0,
		s.Mem.Counts().RD, s.Mem.Counts().WR, s.Mem.Counts().NDARD, s.Mem.Counts().NDAWR)
}

// goldenWant pins exact simulator behavior for the fixed seeds and
// budgets above. Any change to scheduling, timing, or fast-forward
// semantics that alters observable counters fails TestGoldenStats;
// regenerate with `go test ./internal/sim -run TestGoldenStats -v` and
// copy the logged values only when the behavior change is intended.
var goldenWant = map[string]string{
	"host-only":                "ipc=1.2531687341563291 blocks=0 busy=41190 rd=11519 wr=0 ndard=0 ndawr=0",
	"nda-only-nrm2":            "ipc=0 blocks=12748 busy=0 rd=0 wr=4 ndard=15914 ndawr=0",
	"nda-only-copy-stochastic": "ipc=0 blocks=10179 busy=0 rd=0 wr=4 ndard=6639 ndawr=6169",
	"mixed-mix1-dot":           "ipc=1.0024599877000615 blocks=6130 busy=39062 rd=11002 wr=4 ndard=7551 ndawr=0",
	"mixed-mix3-copy-shared":   "ipc=1.1588942055289724 blocks=2262 busy=38213 rd=10644 wr=4 ndard=1664 ndawr=1361",
	// Stall-window stress shapes for the PR 3 core-skip machinery,
	// pinned from the reference cycle-by-cycle path (unchanged since the
	// seed): the wake-driven scheduler must reproduce these exactly.
	"host-stall-heavy":       "ipc=0.16807415962920186 blocks=0 busy=40473 rd=11366 wr=0 ndard=0 ndawr=0",
	"host-store-heavy":       "ipc=0.6050669746651267 blocks=0 busy=39835 rd=11195 wr=0 ndard=0 ndawr=0",
	"host-lsq-saturating":    "ipc=0.4121079394603027 blocks=0 busy=40267 rd=11277 wr=0 ndard=0 ndawr=0",
	"mixed-stall-heavy-copy": "ipc=0.14947425262873687 blocks=4345 busy=36885 rd=10233 wr=4 ndard=2775 ndawr=2617",
	// Compute-heavy shapes, pinned from the instruction-at-a-time core:
	// the run-length ROB, whose plain runs these groups are mostly made
	// of, must reproduce these bits exactly on both drive paths.
	"host-compute-heavy": "ipc=4.083684581577092 blocks=0 busy=15519 rd=4741 wr=0 ndard=0 ndawr=0",
	"mixed-compute-copy": "ipc=4.06200968995155 blocks=6421 busy=15440 rd=4744 wr=4 ndard=4260 ndawr=3981",
}

// TestGoldenStats asserts exact HostIPC / NDABlocks / HostBusyCycles
// (and the DRAM command counters) on short deterministic runs of
// host-only, NDA-only, and mixed workloads, via both drive paths.
func TestGoldenStats(t *testing.T) {
	for _, w := range ffWorkloads() {
		for _, fast := range []bool{false, true} {
			name := w.name + "/slow"
			if fast {
				name = w.name + "/fast"
			}
			t.Run(name, func(t *testing.T) {
				got := goldenStats(t, w, fast)
				want, ok := goldenWant[w.name]
				if !ok {
					t.Fatalf("no golden value recorded; add:\n%q: %q,", w.name, got)
				}
				if got != want {
					t.Errorf("golden mismatch:\n got:  %s\n want: %s", got, want)
				}
			})
		}
	}
}

// TestGoldenStatsInvariantChecked re-pins every golden workload with the
// cross-layer invariant checker armed, on the reference path and the
// fast path. Two properties at once: checking
// is observation-only (the counters are byte-identical to the unchecked
// goldens), and eleven diverse workloads crossing every commit barrier
// with the checker armed never trip it.
func TestGoldenStatsInvariantChecked(t *testing.T) {
	arm := func(cfg *Config) { cfg.CheckInvariants = true }
	for _, w := range ffWorkloads() {
		// fast-w1: RunFast, which steps on one worker.
		for _, fast := range []bool{false, true} {
			name := w.name + "/slow"
			if fast {
				name = w.name + "/fast-w1"
			}
			t.Run(name, func(t *testing.T) {
				got := goldenStats(t, w, fast, arm)
				if want := goldenWant[w.name]; got != want {
					t.Errorf("invariant-checked golden mismatch:\n got:  %s\n want: %s", got, want)
				}
			})
		}
	}
}
