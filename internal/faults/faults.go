// Package faults is the fault-injection registry behind the robustness
// tests: named injection sites in the simulator and the experiment
// runner consult it, and tests (or the hidden -inject CLI flag) arm
// hooks that corrupt values, panic, or kill the process at a chosen
// point. The registry exists so the detectors built in this layer —
// the livelock detector, point quarantine, journal resume after a
// crash — are proven to FIRE, not merely to exist.
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
	// PointJournaled fires with a sweep point's index once its resume
	// journal record has been fsynced; the die-after-point spec SIGKILLs
	// the process here, the crash-resume harness's injection point.
	PointJournaled = "experiments.point-journaled"
)

var (
	// armed counts installed hooks: the zero check is the only cost a
	// disarmed consultation pays.
	armed atomic.Int32

	mu      sync.Mutex
	adjusts = map[string]func(int64) int64{}
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

// DisarmAll removes every installed hook. Primarily for tests arming
// hooks through ArmSpec, which returns no individual disarm closures.
func DisarmAll() {
	mu.Lock()
	n := len(adjusts)
	adjusts = map[string]func(int64) int64{}
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

// ArmSpec arms hooks from a comma-separated CLI spec (the chopim
// -inject flag). Supported forms:
//
//	panic-point=K     panic when sweep point K runs
//	stuck-horizon=C   report Never as the wake bound once the bound
//	                  reaches cycle C (livelock injection)
//	die-after-point=N SIGKILL this process the moment the Nth sweep
//	                  point's journal record is durable (crash-resume
//	                  harness)
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
		case "die-after-point":
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("faults: die-after-point=%q: want a point count >= 1", arg)
			}
			var seen atomic.Int64
			ArmAdjust(PointJournaled, func(v int64) int64 {
				if seen.Add(1) >= n {
					// A real crash, not an exit: no deferred cleanup, no
					// atexit flushes. The journal records already on
					// disk are all a resume gets.
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
				return v
			})
		default:
			return fmt.Errorf("faults: unknown injection %q (want panic-point, stuck-horizon, die-after-point)", name)
		}
	}
	return nil
}
