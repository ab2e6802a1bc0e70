// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII). Each FigNN function returns printable rows;
// cmd/chopim renders them.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"chopim/internal/apps"
	"chopim/internal/dram"
	"chopim/internal/faults"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/sim"
	"chopim/internal/stats"
)

// Options sets the simulation budget. Quick shrinks runs for tests.
// Parallel fans each figure's independent simulation points across that
// many workers (0/1 serial, negative = GOMAXPROCS); results are
// identical for every worker count. CycleByCycle forces the
// reference Tick path instead of fast-forward — counters are identical
// either way (the sim package proves it), so it exists as the oracle
// of TestReferenceMatchesFastParallel.
type Options struct {
	WarmCycles    int64
	MeasureCycles int64
	Quick         bool
	Parallel      int
	CycleByCycle  bool

	// CacheDir, when set, enables the content-addressed figure result
	// cache: each figure's rows are stored under a hash of the model
	// version and the behavior-selecting options, and a later run with
	// the same fingerprint replays the stored rows without simulating
	// (see cache.go; figures are deterministic so the replay is exact).
	// While a figure runs, each completed sweep point is stored as an
	// entry too, so a rerun of an interrupted figure replays them and
	// simulates only the rest.
	CacheDir string

	// CheckInvariants arms sim.Config.CheckInvariants on every point:
	// cross-layer conservation invariants validated at each commit
	// barrier, violations quarantining the point. Results are
	// bit-identical with it on or off.
	CheckInvariants bool

	// PointTimeout, when positive, bounds each point's wall-clock time
	// (sim.Config.MaxWallClock): an expired point fails with a
	// DeadlineError, counted in RunnerStats.Timeouts, and under
	// KeepGoing the rest of the sweep still completes.
	PointTimeout time.Duration

	// KeepGoing switches a sweep from fail-fast to partial-failure
	// mode: every healthy point completes, and the failures are
	// reported together as a *SweepError.
	KeepGoing bool

	// Cancel, when set, lets a signal handler or peer goroutine drain
	// the sweep cooperatively: no new points start, in-flight ones run
	// to completion and are stored. A canceled sweep returns
	// ErrSweepCanceled, so partial results are never cached as complete.
	Cancel *Canceler

	// points carries the figure's point store from figCached into its
	// sharded sweeps.
	points *pointStore
}

// newSystem builds one simulation point's system with the options'
// per-simulation settings applied.
func (o Options) newSystem(cfg sim.Config) (*sim.System, error) {
	cfg.CheckInvariants = o.CheckInvariants
	cfg.MaxWallClock = o.PointTimeout
	return sim.New(cfg)
}

// Host-only outcome memo. Several figures measure the same host-only
// point (Fig 2's mixes are Fig 11's idealized runs, Fig 15's stream
// calibration and the power study's host-only rows), and a point is a
// pure function of its simulated config and budget, so one simulation
// serves every request for it in the process.
var hostOnlyMemo = struct {
	sync.Mutex
	m map[string]*hostOnlySlot
}{m: map[string]*hostOnlySlot{}}

// hostOnlySlot is one key's memo entry. A request holds its lock while
// it simulates, so a concurrent request for the key waits; out is set
// only by a request that succeeded.
type hostOnlySlot struct {
	sync.Mutex
	out *outcome
}

// outcome is what the figures read off one measured point: the
// Result, the idle cycles per bucket summed over all ranks (Fig 2), and
// the end cycle, DRAM command counts, NDA count and PE-side counters
// (power).
type outcome struct {
	Result
	Idle   [stats.NumIdleBuckets]int64
	End    int64
	Counts dram.CmdCounts
	PEs    int
	NDA    nda.RankStats
}

// measure builds cfg's system, starts the NDA workload wl on it
// (ndaWorkload) and measures it under o's budget. perRank sizes the
// Table I ops' operands in bytes per rank.
//
// Requests for the host alone (wl "") with the same simulated config
// and budget share one simulation; a concurrent request waits for the
// first. A failure is not memoized (a deadline depends on wall-clock
// time): it returns to its own caller, and a waiter then simulates the
// point itself. Checked runs bypass the memo, so every check runs on
// every point.
func (o Options) measure(cfg sim.Config, wl string, perRank int) (out outcome, err error) {
	var slot *hostOnlySlot
	if wl == "" && !o.CheckInvariants && !o.CycleByCycle && !faults.Active() {
		key, err := json.Marshal(struct {
			Cfg           sim.Config
			Warm, Measure int64
		}{sim.StateConfig(cfg), o.WarmCycles, o.MeasureCycles})
		if err != nil {
			return out, err
		}
		hostOnlyMemo.Lock()
		if slot = hostOnlyMemo.m[string(key)]; slot == nil {
			slot = new(hostOnlySlot)
			hostOnlyMemo.m[string(key)] = slot
		}
		hostOnlyMemo.Unlock()
		slot.Lock()
		defer slot.Unlock()
		if slot.out != nil {
			statHostOnlyReuses.Add(1)
			return *slot.out, nil
		}
	}
	s, err := o.newSystem(cfg)
	if err != nil {
		return out, err
	}
	it, err := o.ndaWorkload(s.RT, wl, perRank)
	if err != nil {
		return out, fmt.Errorf("workload %q: %w", wl, err)
	}
	out.Result, err = measureConcurrent(s, it, o)
	out.End, out.Counts, out.PEs, out.NDA = s.Now(), s.Mem.Counts(), s.RT.NDACount(), s.NDA.TotalStats()
	for _, c := range s.MCs {
		for i := range c.IdleHists {
			for b, v := range c.IdleHists[i].Cycles {
				out.Idle[b] += v
			}
		}
	}
	if slot != nil && err == nil {
		slot.out = &out
	}
	return out, err
}

// ndaWorkload starts the relaunchable NDA workload wl on rt. It is the
// one table of the NDA workloads the figures run:
//   - a Table I op ("dot", "copy", "nrm2", ...; apps.MicroSpec) on
//     private operands of perRank bytes per rank;
//   - "gemv", GEMV over a shared 128-row matrix of perRank/4 columns;
//   - "async:"+op, either of the above launched as asynchronous macro
//     packets of 32 iterations each;
//   - "svrg", "cg" and "sc", the Fig 8 average-gradient kernel, the
//     conjugate-gradient solve and streamcluster, sized by Quick;
//   - "", no NDA work: the host runs alone.
func (o Options) ndaWorkload(rt *ndart.Runtime, wl string, perRank int) (launcher, error) {
	elems := perRank / 4 // float32 elements per rank
	switch wl {
	case "":
		return nil, nil
	case "svrg":
		n := 2048
		if o.Quick {
			n = 512
		}
		ag, err := apps.NewAverageGradient(rt, apps.AverageGradientConfig{N: n, D: 512})
		if err != nil {
			return nil, err
		}
		return ag.Run, nil
	case "cg":
		m := 1024
		if o.Quick {
			m = 512
		}
		app, err := apps.NewCG(rt, m)
		if err != nil {
			return nil, err
		}
		return app.Iterate, nil
	case "sc":
		n := 16384
		if o.Quick {
			n = 4096
		}
		app, err := apps.NewStreamcluster(rt, n, 64, 4)
		if err != nil {
			return nil, err
		}
		return app.Iterate, nil
	}
	op, async := strings.CutPrefix(wl, "async:")
	var spec ndart.Spec
	if op == "gemv" {
		m, err := rt.NewMatrix(128, elems, ndart.Shared)
		if err != nil {
			return nil, err
		}
		spec = ndart.GemvSpec(m)
	} else {
		var err error
		if spec, err = apps.MicroSpec(rt, op, elems, ndart.Private); err != nil {
			return nil, err
		}
	}
	if async {
		return func() (*ndart.Handle, error) {
			return rt.MacroFor(32, func(int) ndart.Spec { return spec })
		}, nil
	}
	return func() (*ndart.Handle, error) { return rt.Launch(spec) }, nil
}

// operandBytes is the per-rank operand size of the Table I ops in Figs
// 11, 12 and 14: 2 MiB, or 256 KiB under Quick.
func (o Options) operandBytes() int {
	if o.Quick {
		return 256 << 10
	}
	return 2 << 20
}

// DefaultOptions returns the full budget: 250k warm-up and 400k
// measured DRAM cycles. The warm-up does not reach steady state. The
// 8 MiB LLC fills with dirty lines before it writes any back, so host
// IPC keeps falling until ~600k cycles and the measured window spans
// the tail of that write-back ramp (ROADMAP.md item 1).
func DefaultOptions() Options {
	return Options{WarmCycles: 250_000, MeasureCycles: 400_000}
}

// QuickOptions returns a smoke budget for tests: 5k warm-up and 40k
// measured cycles. It ends before the LLC writes anything back, so its
// host numbers are far from steady state and support no claim about
// the paper's figures.
func QuickOptions() Options {
	return Options{WarmCycles: 5_000, MeasureCycles: 40_000, Quick: true}
}

// Result is one concurrent-execution measurement.
type Result struct {
	HostIPC   float64
	NDAUtil   float64 // fraction of host-idle rank bandwidth captured
	NDABWGBs  float64 // absolute NDA bandwidth
	HostBWGBs float64
	NDABlocks int64
	HostBusy  int64
	Cycles    int64
}

// launcher produces a fresh completion handle each time the previous one
// finishes, keeping NDAs busy through the window (the paper relaunches
// NDA workloads until host simulation ends).
type launcher func() (*ndart.Handle, error)

// measureConcurrent drives a system with an optional NDA relaunch loop
// through warm-up and measurement.
func measureConcurrent(s *sim.System, it launcher, opt Options) (Result, error) {
	var h *ndart.Handle
	var err error
	relaunch := func() error {
		if it == nil {
			return nil
		}
		if h == nil || h.Done() {
			if h, err = it(); err != nil {
				return err
			}
		}
		return nil
	}
	// Drive the system with fast-forward: StepFast jumps provably-idle
	// windows and produces counters bit-identical to Tick-ing every
	// cycle; handles only complete on executed ticks, so relaunching
	// after each step reproduces the cycle-exact relaunch schedule.
	// Errors (deadline, livelock, sticky failures) abort the point; the
	// reference path checks the deadline itself since Tick never does.
	step := func(end int64) error {
		if opt.CycleByCycle {
			if err := s.DeadlineExceeded(); err != nil {
				return err
			}
			s.Tick()
			return nil
		}
		return s.StepFast(end)
	}
	warmEnd := s.Now() + opt.WarmCycles
	measEnd := warmEnd + opt.MeasureCycles
	if err := relaunch(); err != nil {
		return Result{}, err
	}
	for s.Now() < warmEnd {
		if err := step(warmEnd); err != nil {
			return Result{}, err
		}
		if err := relaunch(); err != nil {
			return Result{}, err
		}
	}
	s.BeginMeasurement()
	busy0, blocks0 := s.HostBusyCycles(), s.NDABlocks()
	// finalize folds whatever has been measured so far into a Result —
	// the complete window normally, a truncated one when a deadline or
	// livelock aborts mid-measurement (the partial stats ride back
	// alongside the error so callers can report how far the point got).
	finalize := func() Result {
		for _, c := range s.MCs {
			c.FinalizeStats(s.Now())
		}
		blocks := s.NDABlocks() - blocks0
		busy := s.HostBusyCycles() - busy0
		res := Result{
			HostIPC:   s.HostIPC(),
			NDAUtil:   s.NDAUtilization(busy, blocks),
			NDABWGBs:  s.NDABandwidthGBs(blocks * dram.BlockBytes),
			NDABlocks: blocks,
			HostBusy:  busy,
			Cycles:    s.MeasuredCycles(),
		}
		hostBlocks := float64(busy) / dram.BL // approx: busy cycles are data bursts
		if mc := s.MeasuredCycles(); mc > 0 {
			res.HostBWGBs = hostBlocks * dram.BlockBytes / sim.Seconds(mc) / 1e9
		}
		return res
	}
	for s.Now() < measEnd {
		if err := step(measEnd); err != nil {
			return finalize(), err
		}
		if err := relaunch(); err != nil {
			return Result{}, err
		}
	}
	return finalize(), nil
}

// geomWithRanks returns the baseline geometry with the given ranks per
// channel.
func geomWithRanks(ranks int) dram.Geometry {
	g := dram.DefaultGeometry()
	g.Ranks = ranks
	return g
}
