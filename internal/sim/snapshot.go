package sim

import (
	"errors"

	"chopim/internal/cache"
	"chopim/internal/cpu"
	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/osmem"
	"chopim/internal/workload"
)

// Checkpoint is a deep copy of a System's full simulation state at a
// quiescent point (between ticks): DRAM bank/timing state, the OS
// allocator, every core's ROB and trace cursor, the cache hierarchy
// with its in-flight misses, the NDA engine's rank FSMs with their
// in-flight ops, the runtime's object graph and pending launch packets,
// every controller's queues, and the clock/measurement scalars.
//
// A checkpoint shares nothing mutable with the system it was taken
// from: it can outlive it, and it can seed any number of forks —
// RestoreSystem builds an independent system per call, so one warmed-up
// checkpoint fans out across figure points. Scheduling caches are not
// captured; restore marks them stale and they re-derive, which is
// behavior-identical because skips are individually proven no-ops.
type Checkpoint struct {
	st ckptState
}

// ckptState is every component state plus the clock and measurement
// scalars. Its exported fields are the encoded checkpoint's payload as
// they stand (see EncodeCheckpoint).
type ckptState struct {
	DRAM  *dram.MemState
	OS    *osmem.OSState
	MCs   []*mc.ControllerState
	Cores []*cpu.CoreState
	Gens  []*workload.GenState
	Hier  *cache.HierarchyState // nil when the system has no host cores
	Eng   *nda.EngineState
	RT    *ndart.RuntimeState

	DRAMCycle     int64
	CPUCycle      int64
	Credit        int
	MeasStartDRAM int64
	MeasStartCPU  int64
	RetiredAtMeas []int64
}

// Cycle returns the DRAM cycle the checkpoint was taken at.
func (ck *Checkpoint) Cycle() int64 { return ck.st.DRAMCycle }

// Snapshot captures the system's full simulation state. It must be
// called between steps (Run/RunFast/StepFast boundaries — the mailbox
// is drained there). It fails under nda.Config.VerifyFSM, a
// debug-only condition.
func (s *System) Snapshot() (*Checkpoint, error) {
	ck, _, err := s.SnapshotWithRoots(nil)
	return ck, err
}

// SnapshotWithRoots is Snapshot plus explicit root handles: each handle
// in roots is registered in the checkpoint's handle table even when no
// in-flight op references it, and its table index is returned in
// matching order. The indices are the names a driver keeps alongside
// the checkpoint: after RestoreSystem (from the checkpoint itself or
// from DecodeCheckpoint's copy of it), RT.RestoredHandleAt(index)
// recovers the rebuilt handle.
func (s *System) SnapshotWithRoots(roots []*ndart.Handle) (*Checkpoint, []int, error) {
	if len(s.outbox) != 0 {
		return nil, nil, errors.New("sim: snapshot mid-tick (mailbox not drained)")
	}
	enc := s.RT.NewSnapshotEncoder()
	engSt, err := s.NDA.Snapshot(enc.EncodeTag)
	if err != nil {
		return nil, nil, err
	}
	var rootIdx []int
	for _, h := range roots {
		rootIdx = append(rootIdx, enc.RegisterHandle(h))
	}
	rtSt := s.RT.Snapshot(enc)
	ck := &Checkpoint{st: ckptState{
		DRAM: s.Mem.Snapshot(),
		OS:   s.OS.Snapshot(),
		Eng:  engSt,
		RT:   rtSt,

		DRAMCycle: s.dramCycle, CPUCycle: s.cpuCycle, Credit: s.credit,
		MeasStartDRAM: s.measStartDRAM, MeasStartCPU: s.measStartCPU,
		RetiredAtMeas: append([]int64(nil), s.retiredAtMeas...),
	}}
	for _, c := range s.MCs {
		ck.st.MCs = append(ck.st.MCs, c.Snapshot())
	}
	if s.Hier != nil {
		ck.st.Hier = s.Hier.Snapshot()
	}
	for i, c := range s.Cores {
		ck.st.Cores = append(ck.st.Cores, c.Snapshot())
		ck.st.Gens = append(ck.st.Gens, s.gens[i].Snapshot())
	}
	return ck, rootIdx, nil
}

// Restore overwrites the system's state with the checkpoint. The system
// must have been built from the same Config the checkpointed system was
// (the invariant checker and the robustness knobs may differ — they do
// not affect simulated state). Continuing a restored system is bit-identical to
// continuing the original, on both the reference and fast paths.
func (s *System) Restore(ck *Checkpoint) {
	st := &ck.st
	if len(st.MCs) != len(s.MCs) || len(st.Cores) != len(s.Cores) ||
		(st.Hier == nil) != (s.Hier == nil) {
		panic("sim: restore onto a system with a different configuration")
	}
	s.Mem.Restore(st.DRAM)
	s.OS.Restore(st.OS)
	for i, c := range s.Cores {
		c.Restore(st.Cores[i])
		s.gens[i].Restore(st.Gens[i])
	}
	if s.Hier != nil {
		s.Hier.Restore(st.Hier, func(core, slot int) func(int64) {
			return s.Cores[core].DoneFn(slot)
		})
	}
	dec := s.RT.Restore(st.RT)
	s.NDA.Restore(st.Eng, dec)
	// Requests that carried completion closures reattach through the
	// restored front-ends: a tagged write is a launch packet (registry
	// callback), a read with a callback is a host demand miss (its MSHR
	// fill).
	resolve := func(write bool, addr uint64, tag uint64) func(int64) {
		if write {
			if tag == 0 {
				panic("sim: restored write with a completion but no launch tag")
			}
			return s.RT.LaunchDone(tag)
		}
		return s.Hier.FillFor(addr)
	}
	for i, c := range s.MCs {
		c.Restore(st.MCs[i], resolve)
	}
	s.dramCycle, s.cpuCycle, s.credit = st.DRAMCycle, st.CPUCycle, st.Credit
	s.measStartDRAM, s.measStartCPU = st.MeasStartDRAM, st.MeasStartCPU
	copy(s.retiredAtMeas, st.RetiredAtMeas)
	s.outbox = s.outbox[:0]
}

// RestoreSystem builds a fresh system from cfg and restores the
// checkpoint into it: the fork primitive. Each call yields an
// independent system; the checkpoint is read-only throughout.
func RestoreSystem(cfg Config, ck *Checkpoint) (*System, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.Restore(ck)
	return s, nil
}
