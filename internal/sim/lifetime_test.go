package sim

import (
	"runtime"
	"testing"
	"time"

	"chopim/internal/workload"
)

// settledGoroutines waits until runtime.NumGoroutine has not moved for
// 50 ms, or for at most 5 s, and returns it: fills left in flight by
// earlier tests finish their batch within milliseconds.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable, deadline := time.Now(), time.Now().Add(5*time.Second); time.Since(stable) < 50*time.Millisecond && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, time.Now()
		}
	}
	return n
}

// TestDroppedSystemsLeakNoGoroutines pins the trace producer's lifetime
// contract: a fill goroutine lives only as long as its batch, so systems
// that are stepped across many batch boundaries and then dropped, with
// no Close, leave no goroutine behind once their last fills finish.
func TestDroppedSystemsLeakNoGoroutines(t *testing.T) {
	base := settledGoroutines()
	// A 1,024-record batch holds 1,024 runs: about 7,500 ComputeHeavy
	// instructions, 2,300 of leela_r's and 1,800 of mcf_r's. Each system
	// must retire three batches' worth per core.
	for _, c := range []struct {
		p   workload.Profile
		min int64
	}{
		{workload.ComputeHeavy(), 3 * 7_500},
		{workload.Profiles["leela_r"], 3 * 2_300},
		{workload.Profiles["mcf_r"], 3 * 1_800},
	} {
		p := c.p
		cfg := Default(-1)
		cfg.HostProfiles = []workload.Profile{p, p, p, p}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunFast(40_000); err != nil {
			t.Fatal(err)
		}
		if s.Cores[0].Retired < c.min {
			t.Fatalf("%s: %d instructions retired, too few to cross batch boundaries", p.Name, s.Cores[0].Retired)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after the systems were dropped, %d before they were built", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
