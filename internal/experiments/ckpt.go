// Mid-point durable checkpoints and cooperative sweep cancellation.
// Long simulation points periodically persist a fork of their system
// (Options.CheckpointEvery) into the journal directory, keyed by a
// fingerprint of everything the point's state depends on; a resumed
// sweep restores the newest valid checkpoint and continues from its
// cycle instead of recomputing from zero. The file carries a
// CRC-guarded metadata line (progress cursors, the driver handle's
// table index) over the sim package's digest-trailered envelope, so a
// torn or corrupted file — including one a crash left behind —
// degrades to the journal's miss-and-recompute contract, never to a
// half-restored point.
package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"chopim/internal/atomicio"
	"chopim/internal/faults"
	"chopim/internal/ndart"
	"chopim/internal/sim"
)

// Canceler coordinates a sweep's cooperative shutdown from a signal
// handler or peer goroutine. Two escalation levels: CancelAdmission
// stops new points from starting while in-flight ones run to
// completion (drain); CancelPoints additionally raises the cooperative
// stop flag every in-flight system polls, so running points cut at the
// next quiescent boundary, persist a final checkpoint when one is
// configured, and return partial statistics. Both are sticky and safe
// to call from any goroutine, any number of times.
type Canceler struct {
	admit atomic.Bool
	sim   atomic.Bool
}

// CancelAdmission stops the runner from admitting new points.
func (c *Canceler) CancelAdmission() { c.admit.Store(true) }

// CancelPoints stops admission and cancels every in-flight point.
func (c *Canceler) CancelPoints() {
	c.admit.Store(true)
	c.sim.Store(true)
}

// AdmissionStopped reports whether new points may still start.
// Nil-safe: no canceler means admission never stops.
func (c *Canceler) AdmissionStopped() bool { return c != nil && c.admit.Load() }

// simFlag is the cooperative stop flag wired into each point's
// sim.Config.Cancel.
func (c *Canceler) simFlag() *atomic.Bool { return &c.sim }

var (
	statCanceled     atomic.Int64
	statCkptWrites   atomic.Int64
	statCkptRestores atomic.Int64
)

// ckptSyncWrites forces the periodic checkpoint cadence onto the
// measurement loop instead of the background writer. Tests that drive
// cancellation from the CkptWritten fault site set it so the cancel
// lands at a deterministic simulated cycle; production always runs
// asynchronously (the crash harness proves that path end to end).
var ckptSyncWrites bool

// pointCkptKey fingerprints everything a mid-point checkpoint's state
// depends on: the model version, the point's simulated config
// (sim.StateConfig), the cycle budget, and the caller's point tag — the
// discriminator for sweeps whose points share a config but differ in
// workload (the NDA-only op sweep runs eight ops over one config).
func pointCkptKey(cfg sim.Config, opt Options) (string, bool) {
	b, err := json.Marshal(struct {
		Schema        string
		Cfg           sim.Config
		Warm, Measure int64
		Quick         bool
		CycleByCycle  bool
		Tag           string
	}{cacheSchema, sim.StateConfig(cfg), opt.WarmCycles, opt.MeasureCycles, opt.Quick, opt.CycleByCycle, opt.pointTag})
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}

// pointCkptMeta is the driver-level progress state that rides above the
// sim envelope: what the simulator cannot know but the resumed
// measurement loop needs to continue exactly where the original was.
type pointCkptMeta struct {
	Key       string
	Cycle     int64
	Measuring bool  // BeginMeasurement already ran
	Busy0     int64 // host-busy baseline captured at BeginMeasurement
	Blocks0   int64 // NDA-blocks baseline captured at BeginMeasurement
	HandleIdx int   // driver handle's encoder-table index; -1 without a launcher
	C         uint32
}

func (m pointCkptMeta) crc() uint32 {
	m.C = 0
	b, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return crc32.ChecksumIEEE(b)
}

// pointCkpt is one in-flight point's checkpoint file context.
type pointCkpt struct {
	path  string
	key   string
	every int64
	next  int64 // next cycle at or past which to persist

	// Background writer for the periodic cadence: a Checkpoint shares
	// nothing mutable with its system, so only the snapshot has to run
	// on the measurement loop — encoding and the fsynced atomic write
	// proceed on this worker while simulation continues. The channel
	// holds one pending job; a cut arriving while the worker is still
	// persisting the previous one is dropped (cadence degrades, the
	// next interval retries — same contract as a failed write). nil
	// until the first asynchronous write, nil again after flush.
	jobs    chan ckptJob
	done    chan struct{}
	flushed bool
}

// ckptJob is a snapshot handed to the background writer: everything
// persist needs without touching the live system again.
type ckptJob struct {
	cfg  sim.Config
	ck   *sim.Checkpoint
	meta pointCkptMeta
}

// openPointCkpt arms mid-point checkpointing for one point, or returns
// nil when it is off (no cadence, no journal directory, or a system
// not starting at cycle zero — the budget arithmetic and the key both
// assume the figure-built fresh-system convention).
func openPointCkpt(s *sim.System, opt Options) *pointCkpt {
	if opt.CheckpointEvery <= 0 || opt.JournalDir == "" || s.Now() != 0 {
		return nil
	}
	key, ok := pointCkptKey(s.Cfg, opt)
	if !ok {
		return nil
	}
	return &pointCkpt{
		path:  filepath.Join(opt.JournalDir, "point-"+key[:20]+".ckpt"),
		key:   key,
		every: opt.CheckpointEvery,
		next:  opt.CheckpointEvery,
	}
}

// due reports whether the point has crossed its next persistence cycle.
// Nil-safe: checkpointing off is never due.
func (c *pointCkpt) due(now int64) bool { return c != nil && now >= c.next }

// snap captures the point's current state as a persistable job: the
// deep-copy snapshot plus the driver-level progress metadata. This is
// the only part of a checkpoint write that must run on the measurement
// loop. A refused snapshot (copies in flight) skips this interval and
// retries at the next — checkpoints accelerate resume, they are not
// allowed to fail the sweep.
func (c *pointCkpt) snap(s *sim.System, h *ndart.Handle, measuring bool, busy0, blocks0 int64) (ckptJob, bool) {
	c.next = s.Now()/c.every*c.every + c.every
	var roots []*ndart.Handle
	if h != nil {
		roots = append(roots, h)
	}
	ck, rootIdx, err := s.SnapshotWithRoots(roots)
	if err != nil {
		return ckptJob{}, false
	}
	meta := pointCkptMeta{
		Key: c.key, Cycle: s.Now(), Measuring: measuring,
		Busy0: busy0, Blocks0: blocks0, HandleIdx: -1,
	}
	if len(rootIdx) == 1 {
		meta.HandleIdx = rootIdx[0]
	}
	return ckptJob{cfg: s.Cfg, ck: ck, meta: meta}, true
}

// persist encodes a job and lands it durably: atomic-replace with fsync
// (atomicio). The fault sites let tests and the crash harness tear the
// bytes or SIGKILL the process the instant the file lands. Safe to call
// from the background writer — a job shares nothing with the live
// system.
func (c *pointCkpt) persist(job ckptJob) {
	env, err := sim.EncodeCheckpoint(job.cfg, job.ck)
	if err != nil {
		return
	}
	job.meta.C = job.meta.crc()
	mb, err := json.Marshal(job.meta)
	if err != nil {
		return
	}
	file := make([]byte, 0, len(mb)+1+len(env))
	file = append(append(append(file, mb...), '\n'), env...)
	if faults.Active() {
		file = faults.Mutate(faults.CkptWrite, file)
	}
	if atomicio.WriteFile(c.path, file) != nil {
		return
	}
	n := statCkptWrites.Add(1)
	if faults.Active() {
		faults.Adjust(faults.CkptWritten, n)
	}
}

// write persists the point's current state synchronously: the file is
// on disk (or the attempt abandoned) when it returns. Used for the
// final cut on cancellation, where the process may exit immediately
// after, and by tests that assert on the file. Nil-safe.
func (c *pointCkpt) write(s *sim.System, h *ndart.Handle, measuring bool, busy0, blocks0 int64) {
	if c == nil {
		return
	}
	if job, ok := c.snap(s, h, measuring, busy0, blocks0); ok {
		c.persist(job)
	}
}

// writeAsync persists the point's current state through the background
// writer: only the snapshot runs on the caller; encoding and the
// fsynced write overlap continued simulation. Used for the periodic
// cadence. Nil-safe.
func (c *pointCkpt) writeAsync(s *sim.System, h *ndart.Handle, measuring bool, busy0, blocks0 int64) {
	if c == nil {
		return
	}
	job, ok := c.snap(s, h, measuring, busy0, blocks0)
	if !ok {
		return
	}
	if c.flushed || ckptSyncWrites {
		c.persist(job)
		return
	}
	if c.jobs == nil {
		c.jobs = make(chan ckptJob, 1)
		c.done = make(chan struct{})
		go func() {
			for j := range c.jobs {
				c.persist(j)
			}
			close(c.done)
		}()
	}
	select {
	case c.jobs <- job:
	default:
		// Writer still persisting the previous cut; drop this one.
	}
}

// flush drains the background writer and retires it: when flush
// returns, every accepted asynchronous write has landed (or been
// abandoned) and no write can race a subsequent synchronous cut or
// file removal. Later writes fall back to the synchronous path.
// Idempotent and nil-safe.
func (c *pointCkpt) flush() {
	if c == nil || c.flushed {
		return
	}
	c.flushed = true
	if c.jobs != nil {
		close(c.jobs)
		<-c.done
		c.jobs = nil
	}
}

// load restores the point's newest valid checkpoint into s and returns
// its metadata. Every failure mode — no file, torn metadata, a key from
// different options, a corrupt or mismatched envelope — returns ok
// false and the point recomputes from cycle zero, exactly the journal's
// degradation contract. Nil-safe.
func (c *pointCkpt) load(s *sim.System) (pointCkptMeta, bool) {
	var meta pointCkptMeta
	if c == nil {
		return meta, false
	}
	b, err := os.ReadFile(c.path)
	if err != nil {
		return meta, false
	}
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return meta, false
	}
	if json.Unmarshal(b[:nl], &meta) != nil ||
		meta.C != meta.crc() || meta.Key != c.key || meta.Cycle <= 0 {
		return pointCkptMeta{}, false
	}
	ck, err := sim.DecodeCheckpoint(s.Cfg, b[nl+1:])
	if err != nil || ck.Cycle() != meta.Cycle {
		return pointCkptMeta{}, false
	}
	s.Restore(ck)
	statCkptRestores.Add(1)
	return meta, true
}

// remove deletes the checkpoint file: the point completed, and its
// result now lives in the journal (and the figure cache). Drains the
// background writer first so a pending cut cannot recreate the file
// after the removal. Nil-safe.
func (c *pointCkpt) remove() {
	if c != nil {
		c.flush()
		os.Remove(c.path)
	}
}
