package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/workload"
)

// ckWorkload is one checkpointing scenario: a config plus an optional
// relaunchable single-op NDA workload built directly on vectors, so the
// driver can relaunch on a fork as well as on the original (vectors are
// immutable layout descriptors — the same operand set launches
// identically through any system's runtime).
type ckWorkload struct {
	name string
	cfg  func() Config
	op   string // "" = host-only
	n    int    // operand elements
}

func ckWorkloads() []ckWorkload {
	hostProfiles := func(p workload.Profile) func() Config {
		return func() Config {
			c := Default(-1)
			c.HostProfiles = []workload.Profile{p, p, p, p}
			return c
		}
	}
	return []ckWorkload{
		{name: "host-only", cfg: func() Config { return Default(0) }},
		{name: "host-stall-heavy", cfg: hostProfiles(workload.StallHeavy())},
		{name: "nda-only-nrm2", cfg: func() Config { return Default(-1) },
			op: "nrm2", n: (256 << 10) / 4},
		{name: "nda-only-copy-stochastic", cfg: func() Config {
			c := Default(-1)
			c.NDA.Policy = nda.Stochastic
			c.NDA.StochasticProb = 0.25
			return c
		}, op: "copy", n: (128 << 10) / 4},
		{name: "mixed-mix1-dot", cfg: func() Config { return Default(1) },
			op: "dot", n: (128 << 10) / 4},
		{name: "mixed-mix3-copy-shared", cfg: func() Config {
			c := Default(3)
			c.Partitioned = false
			return c
		}, op: "copy", n: (128 << 10) / 4},
	}
}

// ckApp holds the workload's operand vectors.
type ckApp struct {
	op   string
	x, y *ndart.Vector
}

func newCkApp(s *System, op string, n int) (*ckApp, error) {
	if op == "" {
		return nil, nil
	}
	x, err := s.RT.NewVector(n, ndart.Private)
	if err != nil {
		return nil, err
	}
	y, err := s.RT.NewVector(n, ndart.Private)
	if err != nil {
		return nil, err
	}
	return &ckApp{op: op, x: x, y: y}, nil
}

func (a *ckApp) launch(s *System) (*ndart.Handle, error) {
	switch a.op {
	case "copy":
		return s.RT.Copy(a.y, a.x)
	case "dot":
		return s.RT.Dot(a.x, a.y)
	case "nrm2":
		return s.RT.Nrm2(a.x)
	}
	return nil, fmt.Errorf("unknown op %q", a.op)
}

// ckDriver relaunches the workload whenever its handle completes,
// exactly as the experiment harness does.
type ckDriver struct {
	app *ckApp
	h   *ndart.Handle
}

func (d *ckDriver) relaunch(t *testing.T, s *System) {
	t.Helper()
	if d.app == nil {
		return
	}
	if d.h == nil || d.h.Done() {
		h, err := d.app.launch(s)
		if err != nil {
			t.Fatal(err)
		}
		d.h = h
	}
}

// cut snapshots s with the driver's in-flight handle, if any, as a
// root, and returns the checkpoint and the root's table index.
func (d *ckDriver) cut(t *testing.T, s *System) (*Checkpoint, []int) {
	t.Helper()
	var roots []*ndart.Handle
	if d.h != nil {
		roots = append(roots, d.h)
	}
	ck, idx, err := s.SnapshotWithRoots(roots)
	if err != nil {
		t.Fatal(err)
	}
	return ck, idx
}

// resumed returns the driver of s, restored from a cut with root index
// idx: it holds the rebuilt handle, so its relaunch decisions match
// the original's cycle for cycle.
func (d *ckDriver) resumed(t *testing.T, s *System, idx []int) *ckDriver {
	t.Helper()
	nd := &ckDriver{app: d.app}
	if len(idx) == 1 {
		if nd.h = s.RT.RestoredHandleAt(idx[0]); nd.h == nil {
			t.Fatal("root handle index did not survive the restore")
		}
	}
	return nd
}

// ckAdvance steps s to cycle end, relaunching after every step.
func ckAdvance(t *testing.T, s *System, d *ckDriver, end int64, fast bool) {
	t.Helper()
	for s.Now() < end {
		if fast {
			s.StepFast(end)
		} else {
			s.Tick()
		}
		d.relaunch(t, s)
	}
}

// TestSnapshotRestoreContinue proves the checkpoint contract: a system
// snapshotted mid-run and restored into a fresh instance continues
// bit-identically to the original, on the reference path and on the
// fast path — with NDA ops in flight,
// launch packets queued, and misses outstanding at the cut. The
// restored system must also snapshot to the same bytes as the cut, so
// restore drops no carried state (such as a cache set's recency order)
// that the continuation might not reach.
func TestSnapshotRestoreContinue(t *testing.T) {
	const n1, n2 = 12_000, 10_000
	for _, w := range ckWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			a, err := New(w.cfg())
			if err != nil {
				t.Fatal(err)
			}
			app, err := newCkApp(a, w.op, w.n)
			if err != nil {
				t.Fatal(err)
			}
			drv := &ckDriver{app: app}
			drv.relaunch(t, a)
			ckAdvance(t, a, drv, n1, false)
			ck, rootIdx := drv.cut(t, a)
			fpCut := snapshot(a)
			cutBytes, err := EncodeCheckpoint(a.Cfg, ck)
			if err != nil {
				t.Fatal(err)
			}

			// Continue the original on the reference path: the oracle.
			ckAdvance(t, a, drv, n1+n2, false)
			want := snapshot(a)

			// fast-w1: RunFast, which steps on one worker.
			for _, fast := range []bool{false, true} {
				name := "run"
				if fast {
					name = "fast-w1"
				}
				t.Run(name, func(t *testing.T) {
					cfg := w.cfg()
					b, err := RestoreSystem(cfg, ck)
					if err != nil {
						t.Fatal(err)
					}
					if got := snapshot(b); got != fpCut {
						t.Fatalf("restored state differs at the cut:\n orig: %s\n fork: %s", fpCut, got)
					}
					bd := drv.resumed(t, b, rootIdx)
					again, _ := bd.cut(t, b)
					if got, err := EncodeCheckpoint(cfg, again); err != nil {
						t.Fatal(err)
					} else if !bytes.Equal(got, cutBytes) {
						t.Fatal("the restored system snapshots to different bytes than the cut")
					}
					ckAdvance(t, b, bd, n1+n2, fast)
					if got := snapshot(b); got != want {
						t.Fatalf("fork diverged after continue:\n orig: %s\n fork: %s", want, got)
					}
				})
			}
		})
	}
}

// TestTickAfterStepFastMatchesRun pins that Tick stays the reference
// after the fast path has driven a system: a run stepped with StepFast
// to 12k cycles and ticked from there to 32k ends in the same state as
// one ticked all the way, on every checkpoint shape. Tick must step
// every rank NDA with work whatever sleep bounds the fast path left
// behind.
//
// A single switch cycle rarely leaves a bound that the host then
// invalidates, so the switch-sweep subtest makes that happen. On the
// unpartitioned COPY shape (mixed-mix3-copy-shared), host requests land
// on the NDA's banks and the oldest host read decides the next-rank
// write inhibition. The subtest forks one cut and switches from
// StepFast to Tick at each of switchSweep consecutive cycles. At some
// of them a rank sleeps over a bound that host traffic on the first
// ticked cycles invalidates (a read that makes it the inhibited rank,
// or a demand for the bank it waits to activate), so a Tick that
// trusted the bound would skip StallsPolicy or StallsHost cycles the
// reference counts.
func TestTickAfterStepFastMatchesRun(t *testing.T) {
	const n1, n2 = 12_000, 32_000
	for _, w := range ckWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			run := func(fastFirst bool) string {
				s, err := New(w.cfg())
				if err != nil {
					t.Fatal(err)
				}
				app, err := newCkApp(s, w.op, w.n)
				if err != nil {
					t.Fatal(err)
				}
				drv := &ckDriver{app: app}
				drv.relaunch(t, s)
				ckAdvance(t, s, drv, n1, fastFirst)
				ckAdvance(t, s, drv, n2, false)
				return snapshot(s)
			}
			if mixed, ref := run(true), run(false); mixed != ref {
				t.Fatalf("StepFast then Tick diverged from Tick alone:\n ref:   %s\n mixed: %s", ref, mixed)
			}
		})
	}
	t.Run("switch-sweep", func(t *testing.T) {
		const cut, end, switchSweep = 6_000, 7_000, 256
		var w ckWorkload
		for _, c := range ckWorkloads() {
			if c.name == "mixed-mix3-copy-shared" {
				w = c
			}
		}
		a, err := New(w.cfg())
		if err != nil {
			t.Fatal(err)
		}
		app, err := newCkApp(a, w.op, w.n)
		if err != nil {
			t.Fatal(err)
		}
		drv := &ckDriver{app: app}
		drv.relaunch(t, a)
		ckAdvance(t, a, drv, cut, false)
		ck, rootIdx := drv.cut(t, a)
		ckAdvance(t, a, drv, end, false)
		want := snapshot(a)
		for sw := int64(cut + 1); sw <= cut+switchSweep; sw++ {
			b, err := RestoreSystem(w.cfg(), ck)
			if err != nil {
				t.Fatal(err)
			}
			bd := drv.resumed(t, b, rootIdx)
			ckAdvance(t, b, bd, sw, true)
			ckAdvance(t, b, bd, end, false)
			if got := snapshot(b); got != want {
				t.Fatalf("StepFast to %d then Tick diverged from Tick alone:\n ref:   %s\n mixed: %s", sw, want, got)
			}
		}
	})
}

// TestSnapshotRestoreRandomized fuzzes the checkpoint cut point: the
// original runs fast through randomized boundaries; at every few
// boundaries a checkpoint forks and the fork is driven through the
// remaining boundaries, its fingerprint compared at each — so cuts
// land mid-stall-window, mid-burst, with
// write buffers part-drained and launch packets half-delivered.
func TestSnapshotRestoreRandomized(t *testing.T) {
	fuzz := map[string]bool{
		"nda-only-copy-stochastic": true,
		"mixed-mix3-copy-shared":   true,
		"host-stall-heavy":         true,
	}
	for wi, w := range ckWorkloads() {
		if !fuzz[w.name] {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBEEF + int64(wi)))
			var bounds []int64
			cycle := int64(0)
			for i := 0; i < 20; i++ {
				cycle += 1 + rng.Int63n(2_000)
				bounds = append(bounds, cycle)
			}
			a, err := New(w.cfg())
			if err != nil {
				t.Fatal(err)
			}
			app, err := newCkApp(a, w.op, w.n)
			if err != nil {
				t.Fatal(err)
			}
			drv := &ckDriver{app: app}
			drv.relaunch(t, a)

			type forkPoint struct {
				ck    *Checkpoint
				idx   []int // the driver's root handle index
				bound int   // index of the boundary the checkpoint was cut at
			}
			var forks []forkPoint
			fps := make([]string, len(bounds))
			for i, end := range bounds {
				ckAdvance(t, a, drv, end, true)
				if a.Now() != end {
					t.Fatalf("overshot boundary: at %d, want %d", a.Now(), end)
				}
				fps[i] = snapshot(a)
				if i%4 == 1 {
					ck, idx := drv.cut(t, a)
					forks = append(forks, forkPoint{ck: ck, idx: idx, bound: i})
				}
			}
			for _, f := range forks {
				b, err := RestoreSystem(w.cfg(), f.ck)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshot(b); got != fps[f.bound] {
					t.Fatalf("fork at boundary %d differs at the cut:\n orig: %s\n fork: %s",
						f.bound, fps[f.bound], got)
				}
				bd := drv.resumed(t, b, f.idx)
				last := f.bound + 6
				if last > len(bounds)-1 {
					last = len(bounds) - 1
				}
				for j := f.bound + 1; j <= last; j++ {
					ckAdvance(t, b, bd, bounds[j], true)
					if got := snapshot(b); got != fps[j] {
						t.Fatalf("fork from boundary %d diverged at boundary %d:\n orig: %s\n fork: %s",
							f.bound, j, fps[j], got)
					}
				}
			}
		})
	}
}
