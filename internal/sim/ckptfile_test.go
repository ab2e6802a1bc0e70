package sim

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"chopim/internal/ndart"
)

// TestCheckpointFileRoundTrip proves the durable-checkpoint contract:
// a system cut at a randomized mid-flight point, encoded to disk, and
// reloaded through the file codec (no in-memory pointers survive — the
// driver's handle crosses the cut by table index, exactly as a fresh
// process must) continues bit-identically to the original, on the
// reference path and on the fast path.
func TestCheckpointFileRoundTrip(t *testing.T) {
	const n1, n2 = 10_000, 8_000
	for wi, w := range ckWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xD15C + int64(wi)))
			cut := n1 + rng.Int63n(4_000)
			end := cut + n2
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
			ckAdvance(t, a, drv, cut, true)

			var roots []*ndart.Handle
			if drv.h != nil {
				roots = append(roots, drv.h)
			}
			ck, rootIdx, err := a.SnapshotWithRoots(roots)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Cycle() != cut {
				t.Fatalf("checkpoint cycle %d, want %d", ck.Cycle(), cut)
			}
			fpCut := snapshot(a)
			path := filepath.Join(t.TempDir(), "cut.ckpt")
			if err := SaveCheckpoint(path, a.Cfg, ck); err != nil {
				t.Fatal(err)
			}

			// Continue the original on the reference path: the oracle.
			ckAdvance(t, a, drv, end, false)
			want := snapshot(a)

			// fast-w1: RunFast, which steps on one worker.
			for _, fast := range []bool{false, true} {
				name := "run"
				if fast {
					name = "fast-w1"
				}
				t.Run(name, func(t *testing.T) {
					cfg := w.cfg()
					ck2, err := LoadCheckpoint(path, cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := RestoreSystem(cfg, ck2)
					if err != nil {
						t.Fatal(err)
					}
					if got := snapshot(b); got != fpCut {
						t.Fatalf("reloaded state differs at the cut:\n orig: %s\n file: %s", fpCut, got)
					}
					bd := &ckDriver{app: app}
					if len(rootIdx) == 1 {
						bd.h = b.RT.RestoredHandleAt(rootIdx[0])
						if bd.h == nil {
							t.Fatal("root handle index did not survive the file round trip")
						}
					}
					ckAdvance(t, b, bd, end, fast)
					if got := snapshot(b); got != want {
						t.Fatalf("reloaded fork diverged after continue:\n orig: %s\n file: %s", want, got)
					}
				})
			}
		})
	}
}

// TestCheckpointFileCorruption fuzzes the envelope's validation: every
// truncation and every bit flip must surface as a structured decode
// error — never a panic, never a half-restored system — and an intact
// file presented under a different configuration must be rejected as a
// mismatch, not corruption.
func TestCheckpointFileCorruption(t *testing.T) {
	w := ckWorkloads()[4] // mixed-mix1-dot: all components populated
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
	ckAdvance(t, s, drv, 8_000, true)
	ck, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeCheckpoint(s.Cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(s.Cfg, good); err != nil {
		t.Fatalf("pristine bytes rejected: %v", err)
	}

	decode := func(t *testing.T, b []byte) error {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked: %v", r)
			}
		}()
		_, err := DecodeCheckpoint(s.Cfg, b)
		return err
	}

	t.Run("truncations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(0x70A9))
		cuts := []int{0, 1, 7, 8, ckptHeaderLen - 1, ckptHeaderLen, len(good) - 1}
		for i := 0; i < 32; i++ {
			cuts = append(cuts, rng.Intn(len(good)))
		}
		for _, n := range cuts {
			if err := decode(t, good[:n]); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrCorruptCheckpoint", n, err)
			}
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(0xF11B))
		for i := 0; i < 64; i++ {
			b := append([]byte(nil), good...)
			b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
			if err := decode(t, b); err == nil {
				t.Fatal("bit-flipped envelope decoded cleanly")
			}
		}
	})
	t.Run("config-mismatch", func(t *testing.T) {
		other := Default(0) // different mix: intact file, wrong fingerprint
		if _, err := DecodeCheckpoint(other, good); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("got %v, want ErrCheckpointMismatch", err)
		}
	})
}

// TestCancelCooperative proves the cooperative-stop contract: setting
// Config.Cancel makes the fast path return a sticky *CanceledError with
// the system readable at a quiescent boundary, and a checkpoint taken
// there resumes — in a fresh system with the flag cleared — to a state
// bit-identical with a never-canceled run.
func TestCancelCooperative(t *testing.T) {
	w := ckWorkloads()[4] // mixed-mix1-dot
	const horizon = 60_000

	// Reference: the same workload never canceled.
	ref, err := New(w.cfg())
	if err != nil {
		t.Fatal(err)
	}
	refApp, err := newCkApp(ref, w.op, w.n)
	if err != nil {
		t.Fatal(err)
	}
	refDrv := &ckDriver{app: refApp}
	refDrv.relaunch(t, ref)
	ckAdvance(t, ref, refDrv, horizon, true)
	want := snapshot(ref)

	cfg := w.cfg()
	var flag atomic.Bool
	cfg.Cancel = &flag
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := newCkApp(s, w.op, w.n)
	if err != nil {
		t.Fatal(err)
	}
	drv := &ckDriver{app: app}
	drv.relaunch(t, s)
	if err := s.RunFast(5_000); err != nil {
		t.Fatalf("unset flag perturbed the run: %v", err)
	}
	drv.relaunch(t, s)

	flag.Store(true)
	var canceled *CanceledError
	err = s.RunFast(horizon)
	if !errors.As(err, &canceled) {
		t.Fatalf("canceled run returned %v, want *CanceledError", err)
	}
	if canceled.Cycle != s.Now() || s.Now() <= 0 || s.Now() >= horizon+5_000 {
		t.Fatalf("cancel at cycle %d (err says %d): not a mid-run quiescent cut", s.Now(), canceled.Cycle)
	}
	if again := s.StepFast(s.Now() + 1); !errors.Is(again, err) {
		t.Fatalf("cancel not sticky: second step returned %v", again)
	}

	// The canceled system is checkpointable, and the resumed run lands
	// exactly where the never-canceled reference did.
	var roots []*ndart.Handle
	if drv.h != nil {
		roots = append(roots, drv.h)
	}
	ck, rootIdx, err := s.SnapshotWithRoots(roots)
	if err != nil {
		t.Fatalf("snapshot after cancel: %v", err)
	}
	path := filepath.Join(t.TempDir(), "canceled.ckpt")
	if err := SaveCheckpoint(path, s.Cfg, ck); err != nil {
		t.Fatal(err)
	}
	resumeCfg := w.cfg() // no Cancel flag: a fresh process's config
	ck2, err := LoadCheckpoint(path, resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreSystem(resumeCfg, ck2)
	if err != nil {
		t.Fatal(err)
	}
	bd := &ckDriver{app: app}
	if len(rootIdx) == 1 {
		bd.h = b.RT.RestoredHandleAt(rootIdx[0])
	}
	ckAdvance(t, b, bd, horizon, true)
	if got := snapshot(b); got != want {
		t.Fatalf("cancel+resume diverged from the uninterrupted run:\n want: %s\n  got: %s", want, got)
	}
}
