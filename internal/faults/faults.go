// Package faults is the fault-injection registry behind the robustness
// tests: named injection sites in the simulator and the experiment
// runner consult it, and tests (or the hidden -inject CLI flag) arm
// hooks that corrupt values or bytes, or panic, at a chosen point. The
// registry exists so the detectors built in this layer — the livelock
// watchdog, point quarantine, checkpoint digest checks — are proven to
// FIRE, not merely to exist.
//
// Disarmed cost is one atomic load per consultation (sites are
// consulted per fast-path wake, not per cycle, and the hot benchmarks
// pin the zero-allocs contract with the registry present); tests arm a
// hook, run, and disarm with the returned closure.
package faults

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"chopim/internal/dram"
)

// Injection sites. A site name couples the arming side (tests, ArmSpec)
// to the consulting side (sim, experiments) without a package
// dependency between them.
const (
	// SimNextEvent adjusts the fast path's next-event wake bound before
	// StepFast consumes it. Returning dram.Never while work is pending
	// simulates the stuck-horizon bug class the livelock detector exists
	// for.
	SimNextEvent = "sim.next-event"
	// RunnerPoint fires with each sweep point's index before the point
	// simulates; a hook that panics simulates a crashing point.
	RunnerPoint = "experiments.point"
	// CkptWrite mutates a checkpoint file's bytes as they are written;
	// truncating them simulates a torn write, flipping a bit simulates
	// silent media corruption. Both must surface as a clean
	// miss-and-recompute at resume time, never a half-restored system.
	CkptWrite = "experiments.ckpt-write"
	// CkptWritten fires with the count of completed checkpoint writes
	// after each one lands; the die-after-ckpt spec SIGKILLs the process
	// here, the crash-resume harness's injection point.
	CkptWritten = "experiments.ckpt-written"
)

var (
	// armed counts installed hooks: the zero check is the only cost a
	// disarmed consultation pays.
	armed atomic.Int32

	mu      sync.Mutex
	adjusts = map[string]func(int64) int64{}
	mutates = map[string]func([]byte) []byte{}
)

// Active reports whether any hook is armed (one atomic load).
func Active() bool { return armed.Load() != 0 }

// ArmAdjust installs a value-adjusting hook at site and returns its
// disarm closure. The hook may panic (panic-injection sites).
func ArmAdjust(site string, fn func(int64) int64) (disarm func()) {
	mu.Lock()
	adjusts[site] = fn
	mu.Unlock()
	armed.Add(1)
	return func() {
		mu.Lock()
		delete(adjusts, site)
		mu.Unlock()
		armed.Add(-1)
	}
}

// ArmMutate installs a byte-mutating hook at site and returns its
// disarm closure. The hook receives the bytes about to be written and
// returns what actually lands on disk (truncated, bit-flipped, ...).
func ArmMutate(site string, fn func([]byte) []byte) (disarm func()) {
	mu.Lock()
	mutates[site] = fn
	mu.Unlock()
	armed.Add(1)
	return func() {
		mu.Lock()
		delete(mutates, site)
		mu.Unlock()
		armed.Add(-1)
	}
}

// DisarmAll removes every installed hook. Primarily for tests arming
// hooks through ArmSpec, which returns no individual disarm closures.
func DisarmAll() {
	mu.Lock()
	n := len(adjusts) + len(mutates)
	adjusts = map[string]func(int64) int64{}
	mutates = map[string]func([]byte) []byte{}
	mu.Unlock()
	armed.Add(-int32(n))
}

// Adjust passes v through the site's hook, or returns it unchanged when
// none is armed. Callers should guard with Active() to keep the
// disarmed path to a single atomic load.
func Adjust(site string, v int64) int64 {
	if armed.Load() == 0 {
		return v
	}
	mu.Lock()
	fn := adjusts[site]
	mu.Unlock()
	if fn == nil {
		return v
	}
	return fn(v)
}

// Mutate passes b through the site's hook, or returns it unchanged
// when none is armed. Callers should guard with Active() to keep the
// disarmed path to a single atomic load.
func Mutate(site string, b []byte) []byte {
	if armed.Load() == 0 {
		return b
	}
	mu.Lock()
	fn := mutates[site]
	mu.Unlock()
	if fn == nil {
		return b
	}
	return fn(b)
}

// ArmSpec arms hooks from a comma-separated CLI spec (the chopim
// -inject flag). Supported forms:
//
//	panic-point=K     panic when sweep point K runs
//	stuck-horizon=C   report Never as the wake bound once the bound
//	                  reaches cycle C (livelock injection)
//	ckpt-torn=K       truncate the Kth checkpoint write (torn write)
//	ckpt-badsum=K     flip a bit in the Kth checkpoint write (silent
//	                  corruption; the digest trailer must catch it)
//	die-after-ckpt=N  SIGKILL this process the moment the Nth
//	                  checkpoint write completes (crash-resume harness)
//
// Hooks armed through ArmSpec stay armed for the process lifetime.
func ArmSpec(spec string) error {
	for _, one := range strings.Split(spec, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		name, arg, ok := strings.Cut(one, "=")
		if !ok {
			return fmt.Errorf("faults: spec %q missing '='", one)
		}
		switch name {
		case "panic-point":
			k, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return fmt.Errorf("faults: panic-point: %v", err)
			}
			ArmAdjust(RunnerPoint, func(v int64) int64 {
				if v == k {
					panic(fmt.Sprintf("faults: injected panic at point %d", k))
				}
				return v
			})
		case "stuck-horizon":
			c, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return fmt.Errorf("faults: stuck-horizon: %v", err)
			}
			ArmAdjust(SimNextEvent, func(v int64) int64 {
				if v >= c {
					return dram.Never
				}
				return v
			})
		case "ckpt-torn":
			k, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return fmt.Errorf("faults: ckpt-torn: %v", err)
			}
			var seen atomic.Int64
			ArmMutate(CkptWrite, func(b []byte) []byte {
				if seen.Add(1) == k {
					return b[:len(b)/2]
				}
				return b
			})
		case "ckpt-badsum":
			k, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return fmt.Errorf("faults: ckpt-badsum: %v", err)
			}
			var seen atomic.Int64
			ArmMutate(CkptWrite, func(b []byte) []byte {
				if seen.Add(1) == k && len(b) > 0 {
					c := append([]byte(nil), b...)
					c[len(c)/2] ^= 0x40
					return c
				}
				return b
			})
		case "die-after-ckpt":
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return fmt.Errorf("faults: die-after-ckpt: %v", err)
			}
			ArmAdjust(CkptWritten, func(v int64) int64 {
				if v >= n {
					// A real crash, not an exit: no deferred cleanup, no
					// atexit flushes. The checkpoint that just landed is
					// all a resume gets.
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
				return v
			})
		default:
			return fmt.Errorf("faults: unknown injection %q (want panic-point, stuck-horizon, ckpt-torn, ckpt-badsum, die-after-ckpt)", name)
		}
	}
	return nil
}
