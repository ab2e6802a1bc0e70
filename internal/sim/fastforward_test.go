package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"chopim/internal/apps"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/workload"
)

// snapshot captures every observable counter of a system so the
// cycle-by-cycle and fast-forward paths can be compared exactly.
func snapshot(s *System) string {
	st := s.NDA.TotalStats()
	out := fmt.Sprintf("dram=%d cpu=%d credit=%d host-ipc=%v busy=%d blocks=%d "+
		"ACT=%d PRE=%d RD=%d WR=%d nRD=%d nWR=%d "+
		"br=%d bw=%d acts=%d sh=%d sp=%d ops=%d launches=%d",
		s.Now(), s.CPUNow(), s.credit, s.HostIPC(), s.HostBusyCycles(), s.NDABlocks(),
		s.Mem.Counts().ACT, s.Mem.Counts().PRE, s.Mem.Counts().RD, s.Mem.Counts().WR, s.Mem.Counts().NDARD, s.Mem.Counts().NDAWR,
		st.BlocksRead, st.BlocksWritten, st.RowActs, st.StallsHost, st.StallsPolicy, st.OpsCompleted,
		s.RT.Launches)
	for i, c := range s.MCs {
		out += fmt.Sprintf(" mc%d=%d/%d/%d/%d/%d/%d", i,
			c.ReadsIssued, c.WritesIssued, c.ActsIssued, c.PresIssued, c.ReadLatencySum, c.Drains)
	}
	for i, c := range s.Cores {
		out += fmt.Sprintf(" core%d=%d/%d", i, c.Retired, c.Cycles)
	}
	return out
}

// ffWorkload builds a relaunchable NDA workload on a fresh system, or
// nil for host-only runs.
type ffWorkload struct {
	name string
	cfg  func() Config
	app  func(s *System) (func() (*ndart.Handle, error), error)
	// wbPeak makes drive sample every rank NDA's write buffer after
	// each step and append the peak occupancy as a last entry.
	wbPeak bool
}

func ffWorkloads() []ffWorkload {
	hostOnly := ffWorkload{
		name: "host-only",
		cfg:  func() Config { return Default(0) },
	}
	ndaOnly := ffWorkload{
		name: "nda-only-nrm2",
		cfg:  func() Config { return Default(-1) },
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "nrm2", (256<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	ndaCopy := ffWorkload{
		name: "nda-only-copy-stochastic",
		cfg: func() Config {
			c := Default(-1)
			c.NDA.Policy = nda.Stochastic
			c.NDA.StochasticProb = 0.25
			return c
		},
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	mixed := ffWorkload{
		name: "mixed-mix1-dot",
		cfg:  func() Config { return Default(1) },
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "dot", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	// Shared banks + write-heavy COPY exercises the scheduler paths a
	// partitioned DOT never hits: host/NDA bank conflicts (HasDemandFor
	// priority), write drains, and NDA write throttling.
	mixedShared := ffWorkload{
		name: "mixed-mix3-copy-shared",
		cfg: func() Config {
			c := Default(3)
			c.Partitioned = false
			return c
		},
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	// Stress shapes for the core stall-skipping machinery: each profile
	// drives a different blocked-core cause (serialize-heavy low-MLP
	// stalls, store/writeback pressure, LSQ saturation), and the mixed
	// variant layers NDA traffic over the stall-heavy host.
	hostProfiles := func(p workload.Profile) func() Config {
		return func() Config {
			c := Default(-1)
			c.HostProfiles = []workload.Profile{p, p, p, p}
			return c
		}
	}
	stallHeavy := ffWorkload{name: "host-stall-heavy", cfg: hostProfiles(workload.StallHeavy())}
	storeHeavy := ffWorkload{
		name: "host-store-heavy",
		cfg: hostProfiles(workload.Profile{Name: "store_heavy", Class: workload.High,
			MemRatio: 0.4, WriteFrac: 0.8, Footprint: 32 << 20, StreamFrac: 0.5, Streams: 4}),
	}
	lsqSat := ffWorkload{
		name: "host-lsq-saturating",
		cfg: hostProfiles(workload.Profile{Name: "lsq_sat", Class: workload.High,
			MemRatio: 0.7, WriteFrac: 0.3, Footprint: 24 << 20, StreamFrac: 0.6, Streams: 8, DepFrac: 0.05}),
	}
	mixedStall := ffWorkload{
		name: "mixed-stall-heavy-copy",
		cfg:  hostProfiles(workload.StallHeavy()),
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	// Compute-heavy shapes: high-IPC cache-resident cores whose issue
	// groups are mostly plain runs (goldens pinned from the
	// instruction-at-a-time core). The mixed variant layers NDA COPY
	// traffic over the compute cores so those runs interleave with
	// fills, launches, and writebacks.
	computeHeavy := ffWorkload{name: "host-compute-heavy", cfg: hostProfiles(workload.ComputeHeavy())}
	mixedCompute := ffWorkload{
		name: "mixed-compute-copy",
		cfg:  hostProfiles(workload.ComputeHeavy()),
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	return []ffWorkload{hostOnly, ndaOnly, ndaCopy, mixed, mixedShared,
		stallHeavy, storeHeavy, lsqSat, mixedStall, computeHeavy, mixedCompute}
}

// drive advances sys through segments cycles-long windows, relaunching
// the workload after every executed step exactly as the experiment
// harness does, and records a snapshot at each segment boundary.
func drive(t *testing.T, w ffWorkload, fast bool, segments int, segCycles int64) []string {
	t.Helper()
	s, err := New(w.cfg())
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
	relaunch()
	var snaps []string
	peak := 0
	for seg := 0; seg < segments; seg++ {
		end := s.Now() + segCycles
		for s.Now() < end {
			if fast {
				s.StepFast(end)
			} else {
				s.Tick()
			}
			relaunch()
			if w.wbPeak {
				peak = max(peak, writeBufPeak(t, s))
			}
		}
		snaps = append(snaps, snapshot(s))
	}
	if w.wbPeak {
		snaps = append(snaps, fmt.Sprintf("write-buffer peak %d", peak))
	}
	return snaps
}

// writeBufPeak returns the fullest rank NDA write buffer in s.
func writeBufPeak(t *testing.T, s *System) int {
	st, err := s.NDA.Snapshot(func(any) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, row := range st.Ranks {
		for _, r := range row {
			peak = max(peak, len(r.WB))
		}
	}
	return peak
}

// TestRunFastMatchesRun proves the fast-forward contract: for host-only,
// NDA-only, and mixed workloads, the skipping path reaches every segment
// boundary with counters bit-identical to the cycle-by-cycle baseline.
func TestRunFastMatchesRun(t *testing.T) {
	for _, w := range ffWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			slow := drive(t, w, false, 8, 5_000)
			fast := drive(t, w, true, 8, 5_000)
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("segment %d diverged:\n slow: %s\n fast: %s", i, slow[i], fast[i])
				}
			}
		})
	}
}

// domainWorkloads returns the mixed host+NDA shapes
// TestParallelDomainsMatchSerial runs, with the invariant checker
// armed: the two-channel mixed goldens and a four-channel variant of
// mix1+DOT.
func domainWorkloads() []ffWorkload {
	var out []ffWorkload
	var dot ffWorkload
	for _, w := range ffWorkloads() {
		if w.name == "mixed-mix1-dot" || w.name == "mixed-mix3-copy-shared" {
			out = append(out, w)
		}
		if w.name == "mixed-mix1-dot" {
			dot = w
		}
	}
	out = append(out, ffWorkload{
		name: "mixed-mix1-dot-4ch",
		cfg: func() Config {
			c := dot.cfg()
			c.Geom.Channels = 4
			return c
		},
		app: dot.app,
	})
	for i := range out {
		base := out[i].cfg
		out[i].cfg = func() Config {
			c := base()
			c.CheckInvariants = true
			return c
		}
	}
	return out
}

// TestParallelDomainsMatchSerial pins the multi-channel mailbox
// contract with the invariant checker armed: every completion waits in
// the one mailbox until commit, and the fast path stays bit-identical
// to the Tick oracle at every segment boundary on two and four
// channels. The checker also proves at every commit that the drain
// never grew the mailbox. (The name predates the collapse of the
// per-channel domains into one mailbox.)
func TestParallelDomainsMatchSerial(t *testing.T) {
	for _, w := range domainWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			slow := drive(t, w, false, 4, 5_000)
			fast := drive(t, w, true, 4, 5_000)
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("segment %d diverged:\n serial: %s\n fast:   %s", i, slow[i], fast[i])
				}
			}
		})
	}
}

// TestRunFastMatchesRunWideAndShared extends the Run≡RunFast contract,
// with the invariant checker armed, to configurations production runs
// on the fast path that no golden covers: the Fig 14 geometry of eight
// ranks per channel with host mix 1 and NDA DOT (the benchmark's
// wide8_dot shape; four times the per-rank NDA state and keyed
// banks), and unpartitioned mapping with host mix 1 and NDA COPY under
// the issue-if-idle policy, where NDA rows and writes land on the
// host's own banks. Both run every wake rule of the fast path: NDA
// columns the controllers sleep across, precharges parked by the
// open-page rule, surveys stopped at a due controller, and the single
// NDA pass per channel. The remaining rows cover the stochastic and
// next-rank policies on the unpartitioned mapping, a COPY that fills
// the Table II write buffer to capacity on both paths (its drain is the
// write-buffer backpressure every COPY reaches; nda's
// TestWriteBufferBackpressure covers the early-drain branch no runtime
// op reaches), and 16-block instructions (the only row with a small
// MaxBlocksPerInstr).
func TestRunFastMatchesRunWideAndShared(t *testing.T) {
	app := func(op string) func(s *System) (func() (*ndart.Handle, error), error) {
		return func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, op, (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		}
	}
	for _, w := range []ffWorkload{
		{
			name: "wide8-mix1-dot",
			cfg: func() Config {
				c := Default(1)
				c.Geom.Ranks = 8
				c.CheckInvariants = true
				return c
			},
			app: app("dot"),
		},
		{
			name: "shared-mix1-copy-issue-if-idle",
			cfg: func() Config {
				c := Default(1)
				c.Partitioned = false
				c.NDA.Policy = nda.IssueIfIdle
				c.CheckInvariants = true
				return c
			},
			app: app("copy"),
		},
		{
			name: "shared-mix1-copy-stochastic-1in16",
			cfg: func() Config {
				c := Default(1)
				c.Partitioned = false
				c.NDA.Policy = nda.Stochastic
				c.NDA.StochasticProb = 1.0 / 16
				c.CheckInvariants = true
				return c
			},
			app: app("copy"),
		},
		{
			name: "shared-4rank-mix2-dot-next-rank",
			cfg: func() Config {
				c := Default(2)
				c.Geom.Ranks = 4
				c.Partitioned = false
				c.NDA.Policy = nda.NextRank
				c.CheckInvariants = true
				return c
			},
			app: app("dot"),
		},
		{
			name: "mix1-copy-full-write-buffer",
			cfg: func() Config {
				c := Default(1)
				c.CheckInvariants = true
				return c
			},
			app:    app("copy"),
			wbPeak: true,
		},
		{
			name: "fine-grain-16-blocks-nrm2",
			cfg: func() Config {
				c := Default(1)
				c.MaxBlocksPerInstr = 16
				c.CheckInvariants = true
				return c
			},
			app: app("nrm2"),
		},
	} {
		t.Run(w.name, func(t *testing.T) {
			slow := drive(t, w, false, 4, 5_000)
			fast := drive(t, w, true, 4, 5_000)
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("segment %d diverged:\n slow: %s\n fast: %s", i, slow[i], fast[i])
				}
			}
			if want := fmt.Sprintf("write-buffer peak %d", nda.WriteBufCap); w.wbPeak && slow[len(slow)-1] != want {
				t.Fatalf("got %q on both paths, want %q", slow[len(slow)-1], want)
			}
		})
	}
}

// TestRunFastMatchesRunRandomized fuzzes the equivalence with randomized
// segment boundaries: StepFast must land exactly on arbitrary limits
// (mid-stall-window, mid-burst, single-cycle segments) with state
// bit-identical to the single-stepped reference at every boundary. The
// stress trace profiles each drive a different blocked-core cause, so
// this exercises every wake class of the core-skip machinery: head-wake
// (ROB/LSQ), the probe-stall predicate, controller hints, and NDA sleep
// bounds.
func TestRunFastMatchesRunRandomized(t *testing.T) {
	stress := map[string]bool{
		"host-stall-heavy":       true,
		"host-store-heavy":       true,
		"host-lsq-saturating":    true,
		"mixed-stall-heavy-copy": true,
		"mixed-mix3-copy-shared": true,
	}
	for wi, w := range ffWorkloads() {
		if !stress[w.name] {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(wi)))
			var bounds []int64
			cycle := int64(0)
			for i := 0; i < 40; i++ {
				cycle += 1 + rng.Int63n(2_500)
				bounds = append(bounds, cycle)
			}
			run := func(fast bool) []string {
				s, err := New(w.cfg())
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
				relaunch()
				var snaps []string
				for _, end := range bounds {
					for s.Now() < end {
						if fast {
							s.StepFast(end)
						} else {
							s.Tick()
						}
						relaunch()
					}
					if s.Now() != end {
						t.Fatalf("overshot boundary: at %d, want %d", s.Now(), end)
					}
					snaps = append(snaps, snapshot(s))
				}
				return snaps
			}
			slow := run(false)
			fast := run(true)
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("random boundary %d (cycle %d) diverged:\n slow: %s\n fast: %s",
						i, bounds[i], slow[i], fast[i])
				}
			}
		})
	}
}

// missStormWorkload builds one randomized 8-core miss-storm shape:
// memory-heavy cores with randomized footprints, stream fractions, and
// dependency mixes, layered under NDA DOT traffic. High MemRatio across
// 8 cores keeps the 48 LLC MSHRs saturated (Stall classification and
// rollback), streaming cores make demand accesses merge into in-flight
// miss MSHRs, and the dependency fraction varies how often issue groups
// stop mid-group.
func missStormWorkload(rng *rand.Rand) ffWorkload {
	profs := make([]workload.Profile, 8)
	for i := range profs {
		profs[i] = workload.Profile{
			Name:       fmt.Sprintf("storm%d", i),
			Class:      workload.High,
			MemRatio:   0.55 + 0.4*rng.Float64(),
			WriteFrac:  0.05 + 0.5*rng.Float64(),
			Footprint:  uint64(8+rng.Intn(56)) << 20,
			StreamFrac: rng.Float64(),
			Streams:    1 + rng.Intn(8),
			DepFrac:    0.7 * rng.Float64(),
		}
	}
	seed := rng.Int63()
	var app func(s *System) (func() (*ndart.Handle, error), error)
	for _, w := range ffWorkloads() {
		if w.name == "mixed-mix1-dot" {
			app = w.app
		}
	}
	return ffWorkload{
		name: "miss-storm",
		cfg: func() Config {
			c := Default(-1)
			c.HostProfiles = profs
			c.Seed = seed
			return c
		},
		app: app,
	}
}

// TestCoreShardMissStorm fuzzes the fast path under MSHR
// pressure: randomized 8-core miss storms must produce counters
// bit-identical to the Run oracle. The storms drive every shared-path
// outcome — LLC probes, MSHR merges (a demand access meeting an
// in-flight miss), MSHR/queue Stall classification with rollback, and backend
// reads — interleaved with probe-stall retries whose epoch checks must
// land where the reference interleaving puts them.
func TestCoreShardMissStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5707))
	iters := 3
	if testing.Short() {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		w := missStormWorkload(rng)
		t.Run(fmt.Sprintf("storm-%d", it), func(t *testing.T) {
			slow := drive(t, w, false, 2, 4_000)
			fast := drive(t, w, true, 2, 4_000)
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("segment %d diverged:\n slow: %s\n fast: %s", i, slow[i], fast[i])
				}
			}
		})
	}
}

// TestRunFastAdvancesClock checks RunFast's bookkeeping on a fully idle
// system: the clock jumps without ticks and the CPU-credit arithmetic
// matches Tick's exactly.
func TestRunFastAdvancesClock(t *testing.T) {
	a, err := New(Default(-1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Default(-1))
	if err != nil {
		t.Fatal(err)
	}
	a.Run(12_345)
	b.RunFast(12_345)
	if a.Now() != b.Now() || a.CPUNow() != b.CPUNow() || a.credit != b.credit {
		t.Fatalf("clock skew: run=(%d,%d,%d) fast=(%d,%d,%d)",
			a.Now(), a.CPUNow(), a.credit, b.Now(), b.CPUNow(), b.credit)
	}
}
