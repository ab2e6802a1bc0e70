// Benchmarks regenerating each table and figure of the paper's
// evaluation (Section VII). Each benchmark runs its experiment harness
// on a reduced budget and reports the figure's headline metrics through
// b.ReportMetric, so `go test -bench=.` doubles as a reproduction sweep.
// The full-budget rows live behind `go run ./cmd/chopim <figN>`.
package chopim_test

import (
	"os"
	"strconv"
	"testing"

	"chopim/internal/apps"
	"chopim/internal/dram"
	"chopim/internal/experiments"
	"chopim/internal/ndart"
	"chopim/internal/sim"
	"chopim/internal/stats"
	"chopim/internal/workload"
)

// benchWorkers reads the CHOPIM_BENCH_WORKERS knob (default 1) that
// scripts/bench.sh sweeps to record the point-level sharding trajectory:
// figure benchmarks apply it as Options.Parallel. Speedup requires free
// CPUs — on a single-CPU machine it measures overhead, which the
// snapshot records honestly.
func benchWorkers() int {
	if v := os.Getenv("CHOPIM_BENCH_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

func benchOptions() experiments.Options {
	opt := experiments.QuickOptions()
	opt.Parallel = benchWorkers()
	return opt
}

// freshFigure clears the host-only outcome memo off the timer, so the
// iteration that follows regenerates its whole figure instead of
// replaying host-only points an earlier iteration or benchmark measured.
func freshFigure(b *testing.B) {
	b.StopTimer()
	experiments.ResetHostOnlyMemo()
	b.StartTimer()
}

// BenchmarkCalibrationSpin is a pure-CPU integer spin with no memory
// traffic: a workload-independent anchor for cross-machine ns/op
// normalization. scripts/bench_check.sh divides every other
// benchmark's fresh/committed ratio by this one's, so a uniform
// machine-speed difference cancels exactly — and a uniform regression
// of the simulator suite no longer hides inside the machine factor.
func BenchmarkCalibrationSpin(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		x := uint64(88172645463325252)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	}
	if sink == 0 {
		b.Fatal("spin collapsed")
	}
}

var ndaOnlyOps = []string{"nrm2", "dot", "copy", "axpy"}

// ndaOnlyOptions gives the speed benchmarks a budget long enough that
// per-point setup is negligible against simulated cycles.
func ndaOnlyOptions() experiments.Options {
	return experiments.Options{WarmCycles: 50_000, MeasureCycles: 450_000, Quick: true}
}

// BenchmarkNDAOnlySweepReference is the baseline: the NDA-only sweep on
// one worker with the reference cycle-by-cycle path (every component
// ticked on every DRAM cycle).
func BenchmarkNDAOnlySweepReference(b *testing.B) {
	opt := ndaOnlyOptions()
	opt.Parallel = 1
	opt.CycleByCycle = true
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NDAOnlySweep(opt, ndaOnlyOps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNDAOnlySweepFastParallel runs the identical sweep with both
// layers of the speed subsystem enabled: idle-cycle fast-forward inside
// each simulation and the sharded runner across them (as `chopim
// -parallel -1` does). Results are bit-identical to the reference;
// wall-clock must be >=2x better (fast-forward alone delivers >2x on
// one CPU for NDA-only points; sharding multiplies on real machines).
func BenchmarkNDAOnlySweepFastParallel(b *testing.B) {
	opt := ndaOnlyOptions()
	opt.Parallel = -1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NDAOnlySweep(opt, ndaOnlyOps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedHostNDA measures the host-traffic hot path: a mixed
// host+NDA system (mix 1 plus a long-running NDA COPY, the workload
// shape behind every headline figure) advanced through the production
// steady-state loop (RunFast; Run remains the bit-identical reference
// oracle). The cost mixes per-cycle scheduler work — the FR-FCFS
// passes, the DRAM timing checks, the NDA coordination hooks — with the
// wake-driven dispatch that skips blocked cores and undisturbed
// components. Setup and warm-up run off the timer; allocs/op must be
// zero (the steady-state loop is pooled end to end —
// TestTickLoopAllocFree pins the same property).
func BenchmarkMixedHostNDA(b *testing.B) {
	const measureCycles = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := sim.New(sim.Default(1))
		if err != nil {
			b.Fatal(err)
		}
		// Sized so the op outlives warm-up plus the measured window.
		app, err := apps.NewMicroPlaced(s.RT, "copy", (8<<20)/4, ndart.Private)
		if err != nil {
			b.Fatal(err)
		}
		h, err := app.Iterate()
		if err != nil {
			b.Fatal(err)
		}
		s.RunFast(50_000)
		b.StartTimer()
		s.RunFast(measureCycles)
		b.StopTimer()
		if h.Done() {
			b.Fatal("NDA op finished inside the measured window")
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(measureCycles), "DRAM-cycles/op")
}

// BenchmarkFig14Wide8Ranks measures the widest Figure 14 class
// configuration: 8 ranks per channel — 128 banks per channel against
// the default geometry's 32 — with mix1 host traffic and a long-running
// NDA COPY, through the production RunFast loop. Wide geometries stress
// every per-bank and per-rank structure at 4x the default fan-out: the
// FR-FCFS scan width, the controller's lazy bank-key population, the NDA
// sleep-bound derivation across 8 rank FSMs per channel. Setup and
// warm-up run off the timer; allocs/op must stay zero like the other
// host-path benchmarks.
func BenchmarkFig14Wide8Ranks(b *testing.B) {
	const measureCycles = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := sim.Default(1)
		g := dram.DefaultGeometry()
		g.Ranks = 8
		cfg.Geom = g
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Sized so the op outlives warm-up plus the measured window even
		// at 4x the per-channel NDA bandwidth of the default geometry.
		app, err := apps.NewMicroPlaced(s.RT, "copy", (32<<20)/4, ndart.Private)
		if err != nil {
			b.Fatal(err)
		}
		h, err := app.Iterate()
		if err != nil {
			b.Fatal(err)
		}
		s.RunFast(50_000)
		b.StartTimer()
		s.RunFast(measureCycles)
		b.StopTimer()
		if h.Done() {
			b.Fatal("NDA op finished inside the measured window")
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(measureCycles), "DRAM-cycles/op")
}

// BenchmarkHostStallHeavy measures the core stall-skipping win in
// isolation: four cores run workload.StallHeavy — serialize-heavy,
// low-MLP random loads whose ROB heads sit blocked on DRAM for most
// cycles — with no NDA traffic, through the production RunFast loop.
// With exact core wake times the scheduler jumps the long fully-blocked
// windows instead of ticking every core on every CPU cycle, so this
// benchmark should improve by more than the mixed workload does.
func BenchmarkHostStallHeavy(b *testing.B) {
	const measureCycles = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := sim.Default(-1)
		p := workload.StallHeavy()
		cfg.HostProfiles = []workload.Profile{p, p, p, p}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The MSHR machinery (waiter slices, pending map, node pool) is
		// pre-sized to config bounds, so even this slow-warming 64 MiB
		// random footprint reaches the measured window allocation-free;
		// scripts/bench.sh gates allocs/op at zero here just like the
		// mixed benchmark.
		s.RunFast(150_000)
		b.StartTimer()
		s.RunFast(measureCycles)
	}
	b.ReportMetric(float64(measureCycles), "DRAM-cycles/op")
}

// BenchmarkHostComputeHeavy measures the serial CPU front-end in
// isolation: four high-IPC cache-resident cores (workload.ComputeHeavy)
// whose issue groups are mostly free of memory instructions, with no NDA
// traffic, through the production RunFast loop. An active core pins
// NextEvent to now, so every DRAM tick executes and the cost is almost
// entirely the CPU-credit loop, where the cores issue and retire the
// plain runs that make up most issue groups a run at a time (DESIGN.md
// §2.17); allocs/op must stay zero.
func BenchmarkHostComputeHeavy(b *testing.B) {
	const measureCycles = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := sim.Default(-1)
		p := workload.ComputeHeavy()
		cfg.HostProfiles = []workload.Profile{p, p, p, p}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.RunFast(50_000)
		b.StartTimer()
		s.RunFast(measureCycles)
	}
	b.ReportMetric(float64(measureCycles), "DRAM-cycles/op")
}

// BenchmarkFig02IdleHistogram regenerates Figure 2: rank idle-time
// breakdown across the Table II mixes.
func BenchmarkFig02IdleHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freshFigure(b)
		rows, err := experiments.Fig2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: fraction of idle cycles in sub-250-cycle gaps for
		// the most intensive mix (motivates fine-grain interleaving).
		r := rows[1]
		short := r.Fractions[stats.Idle1To10] + r.Fractions[stats.Idle10To100] + r.Fractions[stats.Idle100To250]
		idle := 1 - r.Fractions[stats.Busy]
		if idle > 0 {
			b.ReportMetric(short/idle, "mix1-short-idle-frac")
		}
	}
}

// BenchmarkFig10CoarseGrain regenerates Figure 10: host IPC and NDA
// bandwidth utilization versus NDA instruction granularity.
func BenchmarkFig10CoarseGrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		fine, coarse := rows[0], rows[len(rows)-1]
		if fine.NDAUtil > 0 {
			b.ReportMetric(coarse.NDAUtil/fine.NDAUtil, "coarse-vs-fine-NDA-BW")
		}
	}
}

// BenchmarkFig11BankPartitioning regenerates Figure 11: shared versus
// partitioned banks under DOT and COPY.
func BenchmarkFig11BankPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freshFigure(b)
		rows, err := experiments.Fig11(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		if r.SharedDOT.NDAUtil > 0 {
			b.ReportMetric(r.PartDOT.NDAUtil/r.SharedDOT.NDAUtil, "partitioning-DOT-gain")
		}
	}
}

// BenchmarkFig12WriteThrottling regenerates Figure 12: the write-issue
// policy comparison under the write-intensive COPY.
func BenchmarkFig12WriteThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		var nextRank, ifIdle experiments.Result
		for _, p := range rows[len(rows)-1].Points {
			switch p.Label {
			case "Predict_next_rank":
				nextRank = p.Res
			case "Issue_if_idle":
				ifIdle = p.Res
			}
		}
		if ifIdle.HostIPC > 0 {
			b.ReportMetric(nextRank.HostIPC/ifIdle.HostIPC, "nextrank-host-IPC-gain")
		}
	}
}

// BenchmarkFig12CachedRegen measures regenerating Figure 12 from the
// content-addressed result cache: the first (seeding) run simulates and
// stores off the timer; every measured iteration replays the stored
// rows. scripts/bench.sh records the ratio against the uncached
// BenchmarkFig12WriteThrottling and gates it at >=10x.
func BenchmarkFig12CachedRegen(b *testing.B) {
	opt := benchOptions()
	opt.CacheDir = b.TempDir()
	if _, err := experiments.Fig12(opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13OpSweep regenerates Figure 13: Table I operations across
// operand sizes and asynchronous launch.
func BenchmarkFig13OpSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		var small, async float64
		for _, r := range rows {
			if r.Op == "copy" && r.Size == "Small" {
				small = r.NDAUtil
			}
			if r.Op == "copy" && r.Size == "Small+Async" {
				async = r.NDAUtil
			}
		}
		if small > 0 && async > 0 {
			b.ReportMetric(async/small, "async-launch-gain")
		}
	}
}

// BenchmarkFig14Scalability regenerates Figure 14: Chopim versus rank
// partitioning across rank counts and workloads.
func BenchmarkFig14Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freshFigure(b)
		rows, err := experiments.Fig14(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "dot" && r.RPNDABW > 0 {
				b.ReportMetric(r.ChopimNDABW/r.RPNDABW, "chopim-vs-RP-NDA-BW")
			}
		}
	}
}

// BenchmarkFig15aConvergence regenerates Figure 15a: SVRG convergence
// trajectories under all execution modes.
func BenchmarkFig15aConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freshFigure(b)
		curves, optimum, err := experiments.Fig15a(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		_ = optimum
		if len(curves) != 7 {
			b.Fatalf("got %d curves, want 7", len(curves))
		}
	}
}

// BenchmarkFig15bScaling regenerates Figure 15b: time-to-convergence
// speedup versus NDA count.
func BenchmarkFig15bScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freshFigure(b)
		rows, err := experiments.Fig15b(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.SpeedupDelayed, "delayed-update-speedup")
	}
}

// BenchmarkAblationLayout isolates the colored-layout contribution
// (DESIGN.md §4 ablations): naive uncolored operands force host copies.
func BenchmarkAblationLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLayout(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].NDAUtil > 0 {
			b.ReportMetric(rows[0].NDAUtil/rows[1].NDAUtil, "colored-vs-naive-NDA-BW")
		}
	}
}

// BenchmarkAblationWriteBuffer sweeps PE write-buffer capacity.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWriteBuffer(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLaunchModel toggles launch-packet modeling.
func BenchmarkAblationLaunchModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLaunchModel(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].NDAUtil > 0 {
			b.ReportMetric(rows[1].NDAUtil/rows[0].NDAUtil, "free-vs-modeled-launch")
		}
	}
}

// BenchmarkPower regenerates the Section VII memory-power estimates.
func BenchmarkPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		freshFigure(b)
		rows, err := experiments.Power(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].AvgPowerW, "concurrent-power-W")
	}
}
