package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestCheckpointFileRoundTrip proves the checkpoint codec's contract:
// a system cut at a randomized mid-flight point, encoded to bytes, and
// reloaded through the decoder (no in-memory pointers survive — the
// driver's handle crosses the cut by table index, exactly as a fresh
// process must) continues bit-identically to the original, on the
// reference path and on the fast path. Every cut must also survive a
// decode and re-encode byte for byte, so no decoder drops an encoded
// field.
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

			ck, rootIdx := drv.cut(t, a)
			if ck.Cycle() != cut {
				t.Fatalf("checkpoint cycle %d, want %d", ck.Cycle(), cut)
			}
			fpCut := snapshot(a)
			env, err := EncodeCheckpoint(a.Cfg, ck)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeCheckpoint(a.Cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			re, err := EncodeCheckpoint(a.Cfg, dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, env) {
				t.Fatalf("re-encoding the decoded checkpoint gives %d bytes, not the original %d", len(re), len(env))
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
					ck2, err := DecodeCheckpoint(cfg, env)
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
					bd := drv.resumed(t, b, rootIdx)
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
