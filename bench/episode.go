package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"chopim/internal/apps"
	"chopim/internal/experiments"
	"chopim/internal/ndart"
	"chopim/internal/sim"
	"chopim/internal/workload"
)

// benchWorkload is one benchmark input. Single-system workloads build one
// system, warm it, and time a fixed measured window; fig11_sweep times a
// whole experiments.Fig11 call. Why each exists is in BENCHMARK.json and
// README.md.
type benchWorkload struct {
	name string
	// config builds the system for a seed; nil for fig11_sweep.
	config func(seed int64) sim.Config
	op     string // NDA micro op relaunched through the window; "" = host only
	warm   int64  // warm-up DRAM cycles before measurement
	window int64  // measured DRAM cycles per episode
	chunk  int64  // measured cycles per timed chunk
	// fixedSeed marks a workload whose inputs do not depend on -seed.
	fixedSeed bool
}

// perRankBytes sizes the NDA operands as Fig 11 does: 2 MiB per rank.
const perRankBytes = 2 << 20

// checkCycles is how far the fast path and the reference oracle run from
// a checkpoint before their counters are compared.
const checkCycles = 50_000

// Fig 11 budget for fig11_sweep: short enough that several sweeps fit in
// one run, long enough that every point leaves warm-up.
const (
	fig11Warm    = 20_000
	fig11Measure = 60_000
)

var workloads = []*benchWorkload{
	{
		name: "mixed_copy",
		config: func(seed int64) sim.Config {
			cfg := sim.Default(1)
			cfg.Seed = seed
			return cfg
		},
		op: "copy", warm: 200_000, window: 1_000_000, chunk: 100_000,
	},
	{
		name: "wide8_dot",
		config: func(seed int64) sim.Config {
			cfg := sim.Default(1)
			cfg.Geom.Ranks = 8
			cfg.Seed = seed
			return cfg
		},
		op: "dot", warm: 200_000, window: 500_000, chunk: 50_000,
	},
	{
		name: "host_compute",
		config: func(seed int64) sim.Config {
			cfg := sim.Default(-1)
			p := workload.ComputeHeavy()
			cfg.HostProfiles = []workload.Profile{p, p, p, p}
			cfg.Seed = seed
			return cfg
		},
		warm: 200_000, window: 1_000_000, chunk: 100_000,
	},
	{name: "fig11_sweep", fixedSeed: true},
}

func findWorkload(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// episode is what one child process reports: one set-up and one measured
// window (or one Fig11 call), plus the checks made on them.
type episode struct {
	SetupNS int64 `json:"setup_ns"`
	BuildNS int64 `json:"build_ns"` // sim.New
	PlaceNS int64 `json:"place_ns"` // operand placement
	WarmNS  int64 `json:"warm_ns"`

	Cycles   int64     `json:"cycles"`    // measured DRAM cycles
	Chunks   []float64 `json:"chunks"`    // host ns per DRAM cycle, per timed chunk
	Mallocs  uint64    `json:"mallocs"`   // heap allocations in the measured window
	BusyFrac float64   `json:"busy_frac"` // Fig11 runner busy time / (wall x workers)

	// Counts are the simulated counters over the measured window; RowsSHA
	// hashes Fig11's rows. Both are deterministic for a seed.
	Counts  map[string]int64 `json:"counts,omitempty"`
	RowsSHA string           `json:"rows_sha256,omitempty"`

	Ckpt  *ckptTimes  `json:"ckpt,omitempty"`
	Split *layerSplit `json:"split,omitempty"` // traced episodes only

	// MaxRSSKiB is the process's peak resident set at the end of the
	// measured window, before the checks allocate their forks.
	MaxRSSKiB int64 `json:"max_rss_kib"`
}

type ckptTimes struct {
	SnapshotNS int64 `json:"snapshot_ns"`
	EncodeNS   int64 `json:"encode_ns"`
	RestoreNS  int64 `json:"restore_ns"` // DecodeCheckpoint + RestoreSystem
	Bytes      int64 `json:"bytes"`
}

// runEpisode is the child side: it runs one episode of w and returns its
// report, or an error if the simulator failed or a check did not hold.
func runEpisode(w *benchWorkload, seed int64, traced bool) (*episode, error) {
	if w.config == nil {
		return runFig11Episode(traced)
	}
	return runSystemEpisode(w, seed, traced)
}

// driven is one system under the relaunch loop: the NDA op restarts as
// soon as it completes, as the experiments harness does.
type driven struct {
	cfg        sim.Config
	s          *sim.System
	iter       func() (*ndart.Handle, error) // nil for host-only systems
	h          *ndart.Handle
	relaunches int64
}

// build makes the system and places its operands, without launching.
func build(w *benchWorkload, cfg sim.Config) (d *driven, buildNS, placeNS int64, err error) {
	t0 := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	d = &driven{cfg: cfg, s: s}
	if w.op != "" {
		app, err := apps.NewMicroPlaced(s.RT, w.op, perRankBytes/4, ndart.Private)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("place %s operands: %w", w.op, err)
		}
		d.iter = app.Iterate
	}
	return d, t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds(), nil
}

func (d *driven) relaunch() error {
	if d.iter == nil || (d.h != nil && !d.h.Done()) {
		return nil
	}
	h, err := d.iter()
	if err != nil {
		return fmt.Errorf("launch NDA op: %w", err)
	}
	d.h = h
	d.relaunches++
	return nil
}

// advance runs n DRAM cycles on the fast path, relaunching after every
// executed tick (handles complete only on ticks, so this is cycle-exact).
func (d *driven) advance(n int64) error {
	end := d.s.Now() + n
	for d.s.Now() < end {
		if err := d.s.StepFast(end); err != nil {
			return err
		}
		if err := d.relaunch(); err != nil {
			return err
		}
	}
	return nil
}

// advanceRef is advance on the reference path: one Tick at a time.
func (d *driven) advanceRef(n int64) error {
	for i := int64(0); i < n; i++ {
		d.s.Run(1)
		if err := d.relaunch(); err != nil {
			return err
		}
	}
	return nil
}

// counts reads the simulated counters the benchmark pins. They are
// cumulative; callers difference two reads.
func (d *driven) counts() map[string]int64 {
	s := d.s
	c := map[string]int64{
		"dram_cycles": s.Now(),
		"cpu_cycles":  s.CPUNow(),
		"relaunches":  d.relaunches,
		"nda_blocks":  s.NDABlocks(),
	}
	for _, core := range s.Cores {
		c["retired"] += core.Retired
	}
	if s.Hier != nil {
		c["llc_hits"], c["llc_misses"] = s.Hier.LLC().Hits, s.Hier.LLC().Misses
	}
	for _, m := range s.MCs {
		c["mc_reads"] += m.ReadsIssued
		c["mc_writes"] += m.WritesIssued
		c["mc_acts"] += m.ActsIssued
		c["mc_read_lat_sum"] += m.ReadLatencySum
	}
	dc := s.Mem.Counts()
	c["dram_act"], c["dram_rd"], c["dram_wr"] = dc.ACT, dc.RD, dc.WR
	c["dram_nda_rd"], c["dram_nda_wr"] = dc.NDARD, dc.NDAWR
	st := s.NDA.TotalStats()
	c["nda_stalls_host"], c["nda_stalls_policy"] = st.StallsHost, st.StallsPolicy
	return c
}

// peakRSSKiB returns the process's peak resident set so far.
func peakRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

func diff(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a))
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

func runSystemEpisode(w *benchWorkload, seed int64, traced bool) (*episode, error) {
	ep := &episode{}
	t0 := time.Now()
	d, buildNS, placeNS, err := build(w, w.config(seed))
	if err != nil {
		return nil, err
	}
	if err := d.relaunch(); err != nil {
		return nil, err
	}
	tw := time.Now()
	if err := d.advance(w.warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	d.s.BeginMeasurement()
	ep.SetupNS = time.Since(t0).Nanoseconds()
	ep.BuildNS, ep.PlaceNS, ep.WarmNS = buildNS, placeNS, time.Since(tw).Nanoseconds()

	c0 := d.counts()
	var prof bytes.Buffer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	for done := int64(0); done < w.window; {
		n := min(w.chunk, w.window-done)
		t := time.Now()
		if err := d.advance(n); err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("measured window: %w", err)
		}
		ep.Chunks = append(ep.Chunks, float64(time.Since(t).Nanoseconds())/float64(n))
		done += n
	}
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms)
	ep.Mallocs = ms.Mallocs - mallocs
	ep.MaxRSSKiB = peakRSSKiB()
	ep.Cycles = w.window
	ep.Counts = diff(c0, d.counts())
	if traced {
		split, err := splitProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		ep.Split = &split
	}
	if ep.Ckpt, err = checkFork(w, d); err != nil {
		return nil, err
	}
	return ep, nil
}

// checkFork times the checkpoint calls on d, restores the encoded
// checkpoint into a fork, and runs d on the fast path and the fork on the
// reference path (Run, one tick at a time) for checkCycles. Their
// counters must agree: a speed change may not move simulated results, and
// a checkpoint must resume exactly.
func checkFork(w *benchWorkload, d *driven) (*ckptTimes, error) {
	var roots []*ndart.Handle
	if d.h != nil {
		roots = append(roots, d.h)
	}
	var ct ckptTimes
	t := time.Now()
	ck, idx, err := d.s.SnapshotWithRoots(roots)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	ct.SnapshotNS = time.Since(t).Nanoseconds()
	t = time.Now()
	enc, err := sim.EncodeCheckpoint(d.cfg, ck)
	if err != nil {
		return nil, err
	}
	ct.EncodeNS, ct.Bytes = time.Since(t).Nanoseconds(), int64(len(enc))
	t = time.Now()
	dec, err := sim.DecodeCheckpoint(d.cfg, enc)
	if err != nil {
		return nil, err
	}
	restored, err := sim.RestoreSystem(d.cfg, dec)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	ct.RestoreNS = time.Since(t).Nanoseconds()

	fork := &driven{cfg: d.cfg, s: restored}
	if d.iter != nil {
		// The relaunch closure must bind operands of the fork's own
		// runtime, so place them on a fresh system before restoring into
		// it (the placement is deterministic, so the addresses match).
		if fork, _, _, err = build(w, d.cfg); err != nil {
			return nil, err
		}
		fork.s.Restore(dec)
		if len(idx) > 0 {
			fork.h = fork.s.RT.RestoredHandleAt(idx[0])
		}
	}
	c0, f0 := d.counts(), fork.counts()
	if err := d.advance(checkCycles); err != nil {
		return nil, fmt.Errorf("fast path after the checkpoint: %w", err)
	}
	if err := fork.advanceRef(checkCycles); err != nil {
		return nil, fmt.Errorf("reference path from the checkpoint: %w", err)
	}
	if got, want := diff(f0, fork.counts()), diff(c0, d.counts()); !maps.Equal(got, want) {
		return nil, fmt.Errorf("checkpoint fork on the reference path diverged from the fast path after %d cycles:\nfast %v\nref  %v", checkCycles, want, got)
	}
	return &ct, nil
}

// fig11Point mirrors one point of experiments.Fig11: a mix, shared or
// partitioned banks, and an NDA op ("" for the host-only ideal).
type fig11Point struct {
	mix  int
	part bool
	op   string
}

func fig11Points() []fig11Point {
	var pts []fig11Point
	for mix := range workload.Mixes {
		pts = append(pts,
			fig11Point{mix, false, "dot"}, fig11Point{mix, false, "copy"},
			fig11Point{mix, true, "dot"}, fig11Point{mix, true, "copy"},
			fig11Point{mix, true, ""})
	}
	return pts
}

// runFig11Episode sets up by building and placing every Fig 11 point's
// system (the construction work the sweep repeats per point), then times
// one Fig11 call on the sweep runner with one worker per CPU.
func runFig11Episode(traced bool) (*episode, error) {
	ep := &episode{}
	t0 := time.Now()
	for _, p := range fig11Points() {
		cfg := sim.Default(p.mix)
		cfg.Partitioned = p.part
		_, buildNS, placeNS, err := build(&benchWorkload{op: p.op}, cfg)
		if err != nil {
			return nil, err
		}
		ep.BuildNS += buildNS
		ep.PlaceNS += placeNS
	}
	ep.SetupNS = time.Since(t0).Nanoseconds()

	opt := experiments.Options{WarmCycles: fig11Warm, MeasureCycles: fig11Measure, Parallel: runtime.GOMAXPROCS(0)}
	var prof bytes.Buffer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	busy0 := experiments.ReadRunnerStats().BusyTime
	t := time.Now()
	rows, err := experiments.Fig11(opt)
	wall := time.Since(t)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("Fig11: %w", err)
	}
	runtime.ReadMemStats(&ms)
	ep.Mallocs = ms.Mallocs - mallocs
	ep.MaxRSSKiB = peakRSSKiB()
	ep.Cycles = int64(len(fig11Points())) * (fig11Warm + fig11Measure)
	ep.Chunks = []float64{float64(wall.Nanoseconds()) / float64(ep.Cycles)}
	busy := experiments.ReadRunnerStats().BusyTime - busy0
	ep.BusyFrac = busy.Seconds() / (wall.Seconds() * float64(opt.Parallel))
	b, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	ep.RowsSHA = hex.EncodeToString(sum[:])
	if traced {
		split, err := splitProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		ep.Split = &split
		// Checkpoint calls on the state the sweep's warm pool snapshots:
		// the widest host-only point (mix 0, eight cores) after warm-up.
		probe := &benchWorkload{}
		d, _, _, err := build(probe, sim.Default(0))
		if err != nil {
			return nil, err
		}
		if err := d.advance(fig11Warm); err != nil {
			return nil, fmt.Errorf("warm-up of the checkpoint probe: %w", err)
		}
		if ep.Ckpt, err = checkFork(probe, d); err != nil {
			return nil, err
		}
	}
	return ep, nil
}
