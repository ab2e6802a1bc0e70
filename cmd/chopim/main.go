// Command chopim regenerates the tables and figures of "Near Data
// Acceleration with Concurrent Host Access" (ISCA 2020) on the simulated
// system. Each subcommand prints the rows/series the paper reports.
//
// Usage:
//
//	chopim [-quick] [-warm N] [-measure N] [-parallel N] [-cache-dir D]
//	       [-check-invariants] [-deadline D] [-fail-fast]
//	       [-cpuprofile F] [-memprofile F] <experiment>
//
// Experiments: fig2 fig10 fig11 fig12 fig13 fig14 fig15a fig15b power
// config all
//
// -cache-dir D keeps a content-addressed result cache: every figure's
// rows are stored under a hash of the model version and the
// behavior-selecting options, and a later run whose fingerprint matches
// replays the stored rows without simulating (figures are deterministic,
// so the replay is exact). While a figure runs, each completed
// simulation point is stored in the same cache, so rerunning an
// interrupted figure with the same -cache-dir replays those points and
// simulates only the rest. A run with -cache-dir reports cache
// hits/misses and resumed points at exit.
//
// -parallel N shards each figure's independent simulation points across
// N workers (-1 = all CPUs). It is the only parallelism: each
// simulation runs on one goroutine (DESIGN.md §2.10 records why).
// Tables are identical for every setting.
//
// Robustness flags: -check-invariants arms the simulator's cross-layer
// conservation checker on every point (results are bit-identical with
// it on or off; violations quarantine the point instead of corrupting
// the table). -deadline D bounds each point's wall-clock time. Each
// point gets exactly one attempt. Sweeps run in partial-failure mode by
// default — healthy points complete and the failures are reported
// together — while -fail-fast restores abort-on-first-error. -inject
// arms a named fault for the fault-injection smoke tests (see
// internal/faults).
//
// Interrupt & resume: resume is point-granular. A kill -9 loses only
// the points in flight; the next run on the same -cache-dir replays
// every stored point and recomputes the rest, printing a byte-identical
// figure. SIGINT/SIGTERM drain the sweep — finish and store the
// in-flight points, admit no more — then exit 130; a second signal
// exits 130 at once.
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiment (see README.md, "Profiling").
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"chopim/internal/dram"
	"chopim/internal/experiments"
	"chopim/internal/faults"
	"chopim/internal/stats"
)

func main() { os.Exit(run()) }

// run executes the CLI; profile writers installed here flush on every
// return path (os.Exit would skip deferred writes).
func run() (code int) {
	// Last-resort boundary: the runner quarantines per-point panics, but
	// a panic outside any point (flag handling, table rendering, a bug
	// in the harness itself) should still exit with a diagnostic and a
	// distinct code rather than a bare crash.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "chopim: internal panic: %v\n%s", r, debug.Stack())
			code = 3
		}
	}()
	quick := flag.Bool("quick", false,
		"smoke budget (5k warm-up + 40k measured cycles): sees no LLC write-back, so its numbers support no claim")
	warm := flag.Int64("warm", 0, "warm-up cycles (0 = default)")
	measure := flag.Int64("measure", 0, "measurement cycles (0 = default)")
	parallel := flag.Int("parallel", -1, "workers for independent simulation points (-1 = all CPUs, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	cacheDir := flag.String("cache-dir", "",
		"content-addressed result cache: replay figures and completed sweep points whose options fingerprint matches a stored entry, store the rest")
	checkInvariants := flag.Bool("check-invariants", false,
		"validate cross-layer conservation invariants at every commit barrier (bit-identical results, slower; violations quarantine the point)")
	deadline := flag.Duration("deadline", 0,
		"per-point wall-clock deadline (0 = none); an expired point fails with partial stats and the sweep continues")
	failFast := flag.Bool("fail-fast", false,
		"abort a sweep at the first failing point instead of completing the healthy ones")
	inject := flag.String("inject", "",
		"arm a fault for smoke testing: panic-point=K, stuck-horizon=C, or die-after-point=N")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chopim [flags] <fig2|fig10|fig11|fig12|fig13|fig14|fig15a|fig15b|power|config|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	// Parsing stops at the first non-flag, so a flag after the
	// experiment name would be silently ignored: refuse it.
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chopim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "chopim: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chopim: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "chopim: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *warm > 0 {
		opt.WarmCycles = *warm
	}
	if *measure > 0 {
		opt.MeasureCycles = *measure
	}
	opt.Parallel = *parallel
	opt.CacheDir = *cacheDir
	opt.CheckInvariants = *checkInvariants
	opt.PointTimeout = *deadline
	opt.KeepGoing = !*failFast
	if *inject != "" {
		if err := faults.ArmSpec(*inject); err != nil {
			fmt.Fprintf(os.Stderr, "chopim: -inject: %v\n", err)
			return 2
		}
	}
	cancel := &experiments.Canceler{}
	opt.Cancel = cancel
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		for range sigCh {
			if interrupted.Swap(true) {
				fmt.Fprintln(os.Stderr, "chopim: second signal, forcing exit")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "chopim: interrupt: draining in-flight points (signal again to force exit)")
			cancel.CancelAdmission()
		}
	}()
	if *cacheDir != "" {
		defer printCacheStats()
	}
	defer printSweepHealth()

	cmds := map[string]func(experiments.Options) error{
		"fig2":   runFig2,
		"fig10":  runFig10,
		"fig11":  runFig11,
		"fig12":  runFig12,
		"fig13":  runFig13,
		"fig14":  runFig14,
		"fig15a": runFig15a,
		"fig15b": runFig15b,
		"power":  runPower,
		"config": runConfig,
	}
	name := flag.Arg(0)
	names := []string{name}
	if name == "all" {
		names = []string{"config", "fig2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b", "power"}
	} else if cmds[name] == nil {
		flag.Usage()
		return 2
	}
	for _, n := range names {
		if interrupted.Load() {
			// A drained interrupt admits no further experiment: not
			// even one whose rows would replay from the cache.
			break
		}
		if name == "all" {
			fmt.Printf("\n===== %s =====\n", n)
		}
		if err := cmds[n](opt); err != nil {
			fmt.Fprintf(os.Stderr, "chopim %s: %v\n", n, err)
			if errors.Is(err, experiments.ErrSweepCanceled) {
				return 130
			}
			return 1
		}
	}
	if name == "all" {
		st := experiments.ReadRunnerStats()
		// Wall time varies run to run, so it goes to stderr: stdout
		// holds only the tables, which are deterministic.
		fmt.Fprintf(os.Stderr, "\nrunner: %d points (%d failed), %s simulation time across <=%d workers\n",
			st.Jobs, st.Errors, st.BusyTime.Round(time.Millisecond), st.MaxShards)
	}
	if interrupted.Load() {
		// The signal may land after the last point finished: the tables
		// above are complete, but a cancel-requested run still reports
		// the conventional interrupted exit status.
		return 130
	}
	return 0
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// printCacheStats reports result-cache and resume activity after a run
// with -cache-dir (CI greps this line to assert the second run of a
// cached figure hits and a rerun after a crash replays points).
func printCacheStats() {
	st := experiments.ReadRunnerStats()
	fmt.Printf("\ncache: %d hits, %d misses; resumed %d points; %d host-only reuses\n",
		st.CacheHits, st.CacheMisses, st.Resumed, st.HostOnlyReuses)
}

// printSweepHealth reports fault-handling activity on stderr after any
// run where it occurred: panics quarantined or deadline expiries.
// Quiet on healthy runs; CI's fault-injection smoke greps for it.
func printSweepHealth() {
	st := experiments.ReadRunnerStats()
	if st.Panics != 0 || st.Timeouts != 0 || st.Quarantined != 0 {
		fmt.Fprintf(os.Stderr, "sweep health: %d panics (%d points quarantined), %d deadline expiries\n",
			st.Panics, st.Quarantined, st.Timeouts)
	}
}

func runFig2(opt experiments.Options) error {
	rows, err := experiments.Fig2(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprint(w, "mix")
	for b := stats.IdleBucket(0); b < stats.NumIdleBuckets; b++ {
		fmt.Fprintf(w, "\t%s", b)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprint(w, r.Mix)
		for _, f := range r.Fractions {
			fmt.Fprintf(w, "\t%.3f", f)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func runFig10(opt experiments.Options) error {
	rows, err := experiments.Fig10(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "ranks/ch\tblocks/instr\thost IPC\tNDA BW util")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r.Ranks, r.BlocksPer, r.HostIPC, r.NDAUtil)
	}
	return w.Flush()
}

func runFig11(opt experiments.Options) error {
	rows, err := experiments.Fig11(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mix\tconfig\thost IPC\tNDA BW util")
	for _, r := range rows {
		for _, c := range []struct {
			name string
			res  experiments.Result
		}{
			{"Shared+DOT", r.SharedDOT}, {"Shared+COPY", r.SharedCOPY},
			{"Partitioned+DOT", r.PartDOT}, {"Partitioned+COPY", r.PartCOPY},
		} {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.Mix, c.name, c.res.HostIPC, c.res.NDAUtil)
		}
		fmt.Fprintf(w, "%s\tIdealized\t%.3f\t1.000\n", r.Mix, r.IdealHostIPC)
	}
	return w.Flush()
}

func runFig12(opt experiments.Options) error {
	rows, err := experiments.Fig12(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mix\tpolicy\thost IPC\tNDA BW util")
	for _, r := range rows {
		for _, p := range r.Points {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.Mix, p.Label, p.Res.HostIPC, p.Res.NDAUtil)
		}
	}
	return w.Flush()
}

func runFig13(opt experiments.Options) error {
	rows, err := experiments.Fig13(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "op\tsize\thost IPC\tNDA BW util")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.Op, r.Size, r.HostIPC, r.NDAUtil)
	}
	return w.Flush()
}

func runFig14(opt experiments.Options) error {
	rows, err := experiments.Fig14(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "ranks/ch\tworkload\tChopim IPC\tChopim NDA GB/s\tRP IPC\tRP NDA GB/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%.3f\t%.2f\t%.3f\t%.2f\n",
			r.Ranks, r.Workload, r.ChopimHostIPC, r.ChopimNDABW, r.RPHostIPC, r.RPNDABW)
	}
	return w.Flush()
}

func runFig15a(opt experiments.Options) error {
	curves, optimum, err := experiments.Fig15a(opt)
	if err != nil {
		return err
	}
	fmt.Printf("optimum loss: %.9f\n", optimum)
	w := tw()
	fmt.Fprintln(w, "curve\ttime(s)\tloss-optimum")
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Fprintf(w, "%s\t%.4f\t%.3e\n", c.Label, p.Seconds, p.Loss-optimum)
		}
	}
	return w.Flush()
}

func runFig15b(opt experiments.Options) error {
	rows, err := experiments.Fig15b(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "NDAs\tACC_Best speedup\tDelayedUpdate speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", r.NDAs, r.SpeedupACCBest, r.SpeedupDelayed)
	}
	return w.Flush()
}

func runPower(opt experiments.Options) error {
	rows, err := experiments.Power(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "scenario\tavg power (W)\tACT (J)\thost IO (J)\tNDA IO (J)\tcompute (J)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3e\t%.3e\t%.3e\t%.3e\n",
			r.Scenario, r.AvgPowerW, r.Breakdown.ActivateJ, r.Breakdown.HostIOJ,
			r.Breakdown.NDAIOJ, r.Breakdown.ComputeJ)
	}
	return w.Flush()
}

func runConfig(experiments.Options) error {
	g := dram.DefaultGeometry()
	t := dram.DDR42400()
	fmt.Printf("Table II system configuration\n")
	fmt.Printf("geometry: %d channels x %d ranks, %d bank groups x %d banks, %d rows x %d blocks (%.0f GiB)\n",
		g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup, g.Rows, g.Cols,
		float64(g.Capacity())/(1<<30))
	fmt.Printf("timing: %+v\n", t)
	return nil
}
