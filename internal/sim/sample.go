package sim

import (
	"fmt"

	"chopim/internal/dram"
	"chopim/internal/energy"
	"chopim/internal/sample"
)

// SampleConfig parameterizes System.RunSampled (see internal/sample).
type SampleConfig = sample.Config

// RunSampled executes the SMARTS-style sampled schedule (DESIGN.md
// §2.11): a detailed prime segment, then cfg.Windows repetitions of
// functional fast-forward, detailed warm-up, and a measured detailed
// window. Detailed segments run through the exact StepFast machinery —
// bit-identical to RunFast — so the approximation
// lives entirely in the fast-forward jumps: host instructions retire
// functionally at the rate the previous detailed segment measured
// (warming cache tags, dirty bits, and DRAM row state along the way),
// and NDA FSMs drain functionally at their measured block rate. The
// returned result carries per-window observations and CLT-derived
// confidence intervals per metric.
//
// The whole schedule is deterministic: fast-forward consumes no
// randomness and detailed windows are bit-exact, so a fixed-seed config
// yields byte-identical results across runs.
//
// Incompatible with Config.NDA.VerifyFSM (the host-side replica FSM
// predicts from timing state the functional drain does not advance) —
// such configs are rejected with an error.
func (s *System) RunSampled(cfg SampleConfig) (*sample.Result, error) {
	return s.RunSampledFunc(cfg, nil)
}

// RunSampledFunc is RunSampled with a per-window hook: onWindow runs
// at each window's start (with the window index), immediately after
// its fast-forward jump and before the detailed warm-up — a quiescent
// boundary where drivers may relaunch NDA work that completed mid-
// jump, inspect handles, or checkpoint. Relaunching here rather than
// after the measurement matters: the warm-up and measured window then
// see the same steady background NDA pressure the exact path would,
// instead of a lull between a mid-jump completion and the next
// boundary. A non-nil error from the hook aborts the run.
func (s *System) RunSampledFunc(cfg SampleConfig, onWindow func(window int) error) (*sample.Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s.Cfg.NDA.VerifyFSM {
		return nil, fmt.Errorf("sim: sampled mode is incompatible with NDA.VerifyFSM (the replica FSM would diverge across functional fast-forward)")
	}

	st := newSampleState(s)
	res := &sample.Result{TotalCycles: cfg.TotalCycles()}

	// Prime: warm from cold through the exact path and derive the first
	// functional-rate estimates.
	st.beginSegment()
	if err := s.RunFast(cfg.Prime); err != nil {
		return nil, err
	}
	st.updateRates()
	res.DetailCycles += cfg.Prime

	ipcW := make([]float64, 0, cfg.Windows)
	ndaW := make([]float64, 0, cfg.Windows)
	hostW := make([]float64, 0, cfg.Windows)
	powW := make([]float64, 0, cfg.Windows)
	utilW := make([]float64, 0, cfg.Windows)
	for w := 0; w < cfg.Windows; w++ {
		ff := cfg.FF + ffJitter(w, cfg)
		s.jumpFF(ff, st)
		res.FFCycles += ff

		if onWindow != nil {
			if err := onWindow(w); err != nil {
				return nil, err
			}
		}

		// Detailed warm-up plus measured window; rates for the next jump
		// are re-derived over the full detailed segment.
		st.beginSegment()
		if err := s.RunFast(cfg.Warmup); err != nil {
			return nil, err
		}
		m := st.mark()
		if err := s.RunFast(cfg.Detail); err != nil {
			return nil, err
		}
		ipc, ndaBW, hostBW, pow, util := st.window(m)
		ipcW = append(ipcW, ipc)
		ndaW = append(ndaW, ndaBW)
		hostW = append(hostW, hostBW)
		powW = append(powW, pow)
		utilW = append(utilW, util)
		st.updateRates()
		res.DetailCycles += cfg.Warmup + cfg.Detail
	}
	res.HostIPC = sample.NewMetric(ipcW, cfg.Z, cfg.SystematicErr)
	res.NDABWGBs = sample.NewMetric(ndaW, cfg.Z, cfg.SystematicErr)
	res.HostBWGBs = sample.NewMetric(hostW, cfg.Z, cfg.SystematicErr)
	res.AvgPowerW = sample.NewMetric(powW, cfg.Z, cfg.SystematicErr)
	res.NDAUtil = sample.NewMetric(utilW, cfg.Z, cfg.SystematicErr)
	return res, nil
}

// ffJitter is the deterministic offset added to window w's fast-forward
// length. Strictly periodic schedules alias with the equally periodic
// relaunch-driven workloads — every window can land on the same phase
// of the NDA launch/drain cycle and the per-window mean stops being an
// unbiased estimate of the span mean. Spreading the jump lengths over
// [3/4·FF, 5/4·FF] breaks the resonance. The offsets come in (+j, −j)
// pairs (an odd trailing window gets 0), so the schedule's total span
// is exactly Windows·FF and Config.TotalCycles stays an identity, and
// they depend only on the window index, so sampled runs remain
// byte-identical across runs.
func ffJitter(w int, cfg SampleConfig) int64 {
	amp := cfg.FF / 4
	if cfg.Windows < 2 || amp == 0 {
		return 0
	}
	if w == cfg.Windows-1 && cfg.Windows%2 == 1 {
		return 0
	}
	j := int64((uint64(w/2)*2654435761 + 1013904223) % uint64(amp+1))
	if w%2 == 1 {
		return -j
	}
	return j
}

// sampleState carries the functional-rate estimates and measurement
// snapshots across one sampled run.
type sampleState struct {
	s *System

	// Per-core IPC and per-(channel,rank) NDA block rates measured over
	// the last detailed segment; the scale factors of the next jump.
	ipc     []float64
	ndaRate [][]float64

	// Segment-start snapshots for rate derivation.
	segCPU     int64
	segDRAM    int64
	segRetired []int64
	segBlocks  [][]int64

	// warmFns[i] is core i's warm callback (allocated once; the per-
	// instruction fast-forward path must not allocate). filt/filtD are
	// a per-core direct-mapped recent-block filter standing in for the
	// private L1/L2 during a jump: an access whose block hits the
	// filter would have hit a private level on the exact path, so it
	// must neither probe the LLC (that would over-refresh shared LRU
	// state and bias the next window warm) nor touch DRAM row state.
	// Entries hold block+1 (0 = empty) with one dirty bit each — the
	// first write to a resident block still reaches the LLC to set its
	// dirty bit, exactly as a write-back eventually would. The filter
	// is cleared at each jump start (jumpFF): it models only intra-jump
	// reuse, the part of private-cache behavior that is knowable
	// without timing.
	warmFns []func(addr uint64, write bool)
	filt    [][]uint64
	filtD   [][]bool

	// rowTick subsamples demand-miss row warming 1-in-rowWarmStride:
	// row-buffer state is last-writer-wins per bank, so only the final
	// pre-window access to each bank matters, and with thousands of
	// misses per jump a strided sample leaves every bank's row at most
	// a few accesses stale while cutting the address-decode cost of
	// the warm path by the stride. Dirty-victim writeback rows (the
	// sink) are not subsampled — they are far rarer.
	rowTick uint64
}

// rowWarmStride is the demand-miss row-warming subsample stride.
const rowWarmStride = 4

// warmFilterSize is the per-core warm-filter reach in blocks (a power
// of two; 512×64B = 32KB, the L1 capacity). Conflict misses make the
// effective reach smaller, which errs on the side of touching the LLC
// too often — the same direction as the exact path's L2 being bigger
// than the filter.
const warmFilterSize = 512

// sampleMark is one measured window's starting counters.
type sampleMark struct {
	cpu     int64
	dram    int64
	retired int64
	nda     int64
	busy    int64
	cnts    dram.CmdCounts
}

func newSampleState(s *System) *sampleState {
	st := &sampleState{
		s:          s,
		ipc:        make([]float64, len(s.Cores)),
		segRetired: make([]int64, len(s.Cores)),
		warmFns:    make([]func(uint64, bool), len(s.Cores)),
		filt:       make([][]uint64, len(s.Cores)),
		filtD:      make([][]bool, len(s.Cores)),
	}
	sink := func(addr uint64) { s.Mem.WarmOpen(s.Mapper.Decode(addr)) }
	for i := range s.Cores {
		core := i
		st.filt[i] = make([]uint64, warmFilterSize)
		st.filtD[i] = make([]bool, warmFilterSize)
		st.warmFns[i] = func(addr uint64, write bool) {
			b := addr / dram.BlockBytes
			idx := b & (warmFilterSize - 1)
			if st.filt[core][idx] == b+1 {
				if !write || st.filtD[core][idx] {
					return // private-level hit on the exact path
				}
				st.filtD[core][idx] = true // first write: set LLC dirty bit
			} else {
				st.filt[core][idx] = b + 1
				st.filtD[core][idx] = write
			}
			if !s.Hier.WarmAccess(core, addr, write, sink) {
				// LLC miss: the demand fill's column access would have
				// activated this row (subsampled; see rowTick).
				if st.rowTick++; st.rowTick%rowWarmStride == 0 {
					s.Mem.WarmOpen(s.Mapper.Decode(addr))
				}
			}
		}
	}
	st.ndaRate = make([][]float64, len(s.MCs))
	st.segBlocks = make([][]int64, len(s.MCs))
	for ch := range st.ndaRate {
		st.ndaRate[ch] = make([]float64, s.Cfg.Geom.Ranks)
		st.segBlocks[ch] = make([]int64, s.Cfg.Geom.Ranks)
	}
	return st
}

// beginSegment snapshots counters at the start of a detailed segment.
func (st *sampleState) beginSegment() {
	st.segCPU = st.s.cpuCycle
	st.segDRAM = st.s.dramCycle
	for i, c := range st.s.Cores {
		st.segRetired[i] = c.Retired
	}
	for ch := range st.segBlocks {
		for r := range st.segBlocks[ch] {
			stats := st.s.NDA.Ranks[ch][r].Stats()
			st.segBlocks[ch][r] = stats.BlocksRead + stats.BlocksWritten
		}
	}
}

// updateRates derives the functional rates from the detailed segment
// that just ran (since beginSegment).
func (st *sampleState) updateRates() {
	dcpu := st.s.cpuCycle - st.segCPU
	if dcpu > 0 {
		for i, c := range st.s.Cores {
			st.ipc[i] = float64(c.Retired-st.segRetired[i]) / float64(dcpu)
		}
	}
	ddram := st.s.dramCycle - st.segDRAM
	if ddram <= 0 {
		return
	}
	for ch := range st.ndaRate {
		for r := range st.ndaRate[ch] {
			stats := st.s.NDA.Ranks[ch][r].Stats()
			st.ndaRate[ch][r] = float64(stats.BlocksRead+stats.BlocksWritten-st.segBlocks[ch][r]) / float64(ddram)
		}
	}
}

// mark snapshots the counters a measured window is a delta over.
func (st *sampleState) mark() sampleMark {
	var retired, nda int64
	for _, c := range st.s.Cores {
		retired += c.Retired
	}
	t := st.s.NDA.TotalStats()
	nda = t.BlocksRead + t.BlocksWritten
	return sampleMark{
		cpu: st.s.cpuCycle, dram: st.s.dramCycle,
		retired: retired, nda: nda, busy: st.s.HostBusyCycles(),
		cnts: st.s.Mem.Counts(),
	}
}

// window evaluates one measured window against its mark: summed host
// IPC, NDA and host DRAM bandwidth in GB/s, average memory-system power
// from the energy model, and NDA utilization of host-idle rank
// bandwidth (the NDAUtilization formula over the window's deltas).
func (st *sampleState) window(m sampleMark) (ipc, ndaBW, hostBW, powerW, util float64) {
	s := st.s
	dcpu := s.cpuCycle - m.cpu
	if dcpu > 0 {
		var retired int64
		for _, c := range s.Cores {
			retired += c.Retired
		}
		ipc = float64(retired-m.retired) / float64(dcpu)
	}
	ddram := s.dramCycle - m.dram
	sec := Seconds(ddram)
	if sec <= 0 {
		return
	}
	t := s.NDA.TotalStats()
	blocks := t.BlocksRead + t.BlocksWritten - m.nda
	ndaBW = float64(blocks) * dram.BlockBytes / sec / 1e9
	ranks := int64(s.Cfg.Geom.Channels * s.Cfg.Geom.Ranks)
	if idle := ddram*ranks - (s.HostBusyCycles() - m.busy); idle > 0 {
		util = float64(blocks*int64(s.Cfg.Timing.BL)) / float64(idle)
		if util > 1 {
			util = 1
		}
	}
	c := s.Mem.Counts()
	d := dram.CmdCounts{
		ACT: c.ACT - m.cnts.ACT, PRE: c.PRE - m.cnts.PRE,
		RD: c.RD - m.cnts.RD, WR: c.WR - m.cnts.WR,
		NDARD: c.NDARD - m.cnts.NDARD, NDAWR: c.NDAWR - m.cnts.NDAWR,
	}
	hostBW = float64(d.RD+d.WR) * dram.BlockBytes / sec / 1e9
	pes := s.Cfg.Geom.Channels * s.Cfg.Geom.Ranks
	powerW = energy.Compute(energy.FromCmdCounts(d, sec, pes)).AvgPowerW
	return
}

// jumpFF advances the clocks k DRAM cycles at functional fidelity: the
// fast-forward half of the sampled schedule. Host cores retire
// ipc·Δcpu instructions in exact trace order through the tag-only warm
// path (cache state and row buffers warm; in-flight misses stay
// frozen), each rank NDA drains rate·k blocks of FSM work (row buffers
// warm, completions fire through the mailboxes), and the CPU-credit
// arithmetic advances exactly as skipIdle's would. Afterwards the
// cached scheduler conclusions no version key covers are invalidated —
// NDA sleep bounds, the probe-stall epoch — mirroring what Restore does
// after a snapshot. Each controller's wake memo revalidates itself: the
// jump's warm opens and any enqueue move the row log and the queue
// counter it is keyed on, and the jump issues no command that could
// move a horizon earlier. The next detailed segment therefore
// re-derives everything the jump touched from the post-jump state.
func (s *System) jumpFF(k int64, st *sampleState) {
	if k <= 0 {
		return
	}
	// The warm filter models only intra-jump reuse; private-cache
	// contents from before the last detailed segment are unknowable.
	for i := range st.filt {
		clear(st.filt[i])
		clear(st.filtD[i])
	}
	total := int64(s.credit) + k*cpuCredit
	dcpu := total / cpuDivisor
	s.credit = int(total % cpuDivisor)
	for i, core := range s.Cores {
		if n := int64(st.ipc[i] * float64(dcpu)); n > 0 {
			core.RetireFunctional(n, st.warmFns[i])
		}
		core.SkipCycles(dcpu)
	}
	s.cpuCycle += dcpu
	end := s.dramCycle + k
	s.dramCycle = end
	for ch := range s.doms {
		for r := 0; r < s.Cfg.Geom.Ranks; r++ {
			budget := int64(st.ndaRate[ch][r] * float64(k))
			if budget <= 0 && s.NDA.RankBusy(ch, r) {
				// Work arrived too late in the last segment to measure a
				// rate; assume the unblocked data-bus rate rather than
				// stalling the rank across the whole jump.
				budget = k / int64(s.Cfg.Timing.BL)
			}
			if budget > 0 {
				s.NDA.DrainFunctional(ch, r, int(budget), end)
			}
		}
	}
	// Op completions were mailboxed by the drains; apply them in
	// canonical order (they may launch follow-on work and enqueue
	// control packets, exactly as a commit phase would).
	s.commit()

	// Invalidate the cached scheduler conclusions derived pre-jump.
	s.NDA.MarkAllStale()
	if s.Hier != nil {
		s.Hier.AdvanceVer()
	}
}
