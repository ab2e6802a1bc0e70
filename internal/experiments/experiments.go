// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII). Each FigNN function returns printable rows;
// cmd/chopim renders them and bench_test.go wraps them as benchmarks.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"chopim/internal/dram"
	"chopim/internal/ndart"
	"chopim/internal/sim"
)

// Options sets the simulation budget. Quick shrinks runs for tests.
// Parallel fans each figure's independent simulation points across that
// many workers (0/1 serial, negative = GOMAXPROCS); results are
// identical for every worker count. CycleByCycle forces the
// reference Tick path instead of fast-forward — counters are identical
// either way (the sim package proves it), so it exists for
// cross-checking and speedup benchmarks.
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
	CacheDir string

	// JournalDir, when set, checkpoints sweep progress: every sharded
	// sweep appends each completed point to a journal file as it
	// finishes. Resume then makes an interrupted run pick up at the
	// last completed point — journals with a stale fingerprint are
	// discarded, and a figure that completes removes its journals.
	JournalDir string
	Resume     bool

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

	// CheckpointEvery, when positive (and JournalDir is set),
	// periodically persists each in-flight point's state to a durable
	// checkpoint file every that-many simulated cycles. A resumed run
	// (Resume) restores the newest valid checkpoint and continues from
	// its cycle instead of recomputing from zero — the mid-point
	// complement to the per-point journal. Corrupt or torn files
	// degrade to recompute; results are bit-identical with
	// checkpointing on, off, or resumed (see ckpt.go).
	CheckpointEvery int64

	// Cancel, when set, lets a signal handler or peer goroutine drain
	// the sweep cooperatively: stop admitting points, or additionally
	// cut every in-flight point at its next quiescent boundary (a final
	// checkpoint is persisted when CheckpointEvery is armed). A
	// canceled sweep returns an error — partial results are never
	// cached as complete — with the completed points journaled.
	Cancel *Canceler

	// journal carries the figure's resume-journal context from
	// figCached into its sharded sweeps.
	journal *journalCtx

	// pointTag discriminates a sweep point's durable checkpoint when
	// the config and budget alone do not (sweeps whose points differ
	// only in workload). Sweep closures set it via withTag.
	pointTag string
}

// withTag returns a copy of the options carrying the point's durable
// checkpoint tag (see Options.pointTag).
func (o Options) withTag(tag string) Options {
	o.pointTag = tag
	return o
}

// newSystem builds one simulation point's system with the options'
// per-simulation settings applied.
func (o Options) newSystem(cfg sim.Config) (*sim.System, error) {
	cfg.CheckInvariants = o.CheckInvariants
	cfg.MaxWallClock = o.PointTimeout
	if o.Cancel != nil {
		cfg.Cancel = o.Cancel.simFlag()
	}
	return sim.New(cfg)
}

// Warm-state pool: host-only figure points that share a configuration
// also share their warm-up work. The first point to warm a given config
// snapshots the system at the end of warm-up; every later point with
// the same fingerprint restores that checkpoint instead of re-simulating
// the warm window. Restore is bit-identical to having warmed (the sim
// package proves it), so pooled and unpooled runs produce the same
// tables. One checkpoint fans out to any number of forks — sim.Restore
// never mutates it.
var (
	warmMu   sync.Mutex
	warmPool = map[string]*sim.Checkpoint{}
)

// warmPoolKey fingerprints a point's warm-up: the simulated config
// (sim.StateConfig) plus the warm-cycle budget.
func warmPoolKey(cfg sim.Config, warm int64) (string, bool) {
	b, err := json.Marshal(struct {
		Schema string
		Cfg    sim.Config
		Warm   int64
	}{cacheSchema, sim.StateConfig(cfg), warm})
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
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
	// Mid-point durable checkpoints (Options.CheckpointEvery): resume
	// restores the newest valid cut — driver handle recovered by table
	// index, measurement baselines from the metadata line — before the
	// first launch touches the fresh system, then the loops below
	// persist a new cut each time the cadence comes due. Restore is
	// bit-identical to having simulated (the sim package proves it), so
	// a resumed point's rows match an uninterrupted run's exactly.
	ckpt := openPointCkpt(s, opt)
	// Every exit must drain the background writer: an abandoned worker
	// goroutine would leak, and an in-flight write racing the caller's
	// teardown could land after the point is gone.
	defer ckpt.flush()
	measuring := false
	var busy0, blocks0 int64
	if opt.Resume {
		if meta, ok := ckpt.load(s); ok {
			measuring = meta.Measuring
			busy0, blocks0 = meta.Busy0, meta.Blocks0
			if meta.HandleIdx >= 0 {
				h = s.RT.RestoredHandleAt(meta.HandleIdx)
			}
		}
	}
	// ckptOnErr persists a final cut when a step error is a cooperative
	// cancel: the point's progress survives the shutdown, and a resumed
	// sweep picks up from this exact boundary. Other errors (livelock,
	// deadline, invariant) leave any previous checkpoint in place.
	ckptOnErr := func(err error) {
		var ce *sim.CanceledError
		if errors.As(err, &ce) {
			// Drain pending periodic cuts first so an older one cannot
			// land after this final, newest cut; then write it
			// synchronously — the process may exit right after.
			ckpt.flush()
			ckpt.write(s, h, measuring, busy0, blocks0)
		}
	}
	if err := relaunch(); err != nil {
		return Result{}, err
	}
	// Host-only points on the fast path share warm-up state through the
	// pool: fork from a warmed checkpoint when one exists, seed it
	// otherwise. NDA-driving points are excluded (their launcher holds
	// handles bound to this system), as is the cycle-by-cycle
	// cross-check path.
	if it == nil && !opt.CycleByCycle &&
		opt.WarmCycles > 0 && s.Now() == 0 {
		if key, ok := warmPoolKey(s.Cfg, opt.WarmCycles); ok {
			warmMu.Lock()
			ck := warmPool[key]
			warmMu.Unlock()
			if ck != nil {
				s.Restore(ck)
				statWarmForks.Add(1)
			} else {
				for s.Now() < warmEnd {
					if err := step(warmEnd); err != nil {
						return Result{}, err
					}
				}
				if ck, err := s.Snapshot(); err == nil {
					warmMu.Lock()
					if _, dup := warmPool[key]; !dup {
						warmPool[key] = ck
					}
					warmMu.Unlock()
				}
			}
		}
	}
	for s.Now() < warmEnd {
		if err := step(warmEnd); err != nil {
			ckptOnErr(err)
			return Result{}, err
		}
		if err := relaunch(); err != nil {
			return Result{}, err
		}
		if ckpt.due(s.Now()) {
			ckpt.writeAsync(s, h, measuring, busy0, blocks0)
		}
	}
	if !measuring {
		s.BeginMeasurement()
		busy0, blocks0 = s.HostBusyCycles(), s.NDABlocks()
		measuring = true
	}
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
		hostBlocks := float64(busy) / float64(s.Cfg.Timing.BL) // approx: busy cycles are data bursts
		if mc := s.MeasuredCycles(); mc > 0 {
			res.HostBWGBs = hostBlocks * dram.BlockBytes / sim.Seconds(mc) / 1e9
		}
		return res
	}
	for s.Now() < measEnd {
		if err := step(measEnd); err != nil {
			ckptOnErr(err)
			return finalize(), err
		}
		if err := relaunch(); err != nil {
			return Result{}, err
		}
		if ckpt.due(s.Now()) {
			ckpt.writeAsync(s, h, measuring, busy0, blocks0)
		}
	}
	// The point completed: the journal (and cache) now own its result,
	// so the mid-point file has nothing left to resume.
	ckpt.remove()
	return finalize(), nil
}

// geomWithRanks returns the baseline geometry with the given ranks per
// channel.
func geomWithRanks(ranks int) dram.Geometry {
	g := dram.DefaultGeometry()
	g.Ranks = ranks
	return g
}

// ndartPrivate aliases the placement so figure files read cleanly.
const ndartPrivate = ndart.Private
