package sim

import (
	"testing"

	"chopim/internal/apps"
	"chopim/internal/ndart"
	"chopim/internal/workload"
)

// TestTickLoopAllocFree pins the allocation-free steady-state contract
// of the tick loop: once a mixed host+NDA system is warmed (pools sized,
// caches filled, write drains established), advancing the clock performs
// zero heap allocations on the reference path (Run) and on the
// production path (RunFast). Every hot-path allocation — controller
// request nodes, LLC MSHRs and their fill callbacks, core completion
// callbacks, the NDA write buffer — comes from a pool or a preallocated
// ring. The wide case is the Fig 14 class: 8 ranks per channel, so every
// per-bank and per-rank structure runs at 4x the default fan-out.
func TestTickLoopAllocFree(t *testing.T) {
	cases := []struct {
		name  string
		ranks int // per channel
		bytes int // private COPY operand
	}{
		{"mix1-copy", 2, 4 << 20},
		{"wide8-copy", 8, 32 << 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default(1)
			cfg.Geom.Ranks = c.ranks
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// COPY exercises both the NDA read and write-buffer paths; the
			// operand is sized so one launch outlives warm-up plus
			// measurement.
			app, err := apps.NewMicroPlaced(s.RT, "copy", c.bytes/4, ndart.Private)
			if err != nil {
				t.Fatal(err)
			}
			h, err := app.Iterate()
			if err != nil {
				t.Fatal(err)
			}
			s.Run(60_000)
			if h.Done() {
				t.Fatal("NDA op finished during warm-up; enlarge the operand")
			}
			for _, w := range []struct {
				name string
				run  func()
			}{
				{"Run", func() { s.Run(5_000) }},
				{"RunFast", func() { err = s.RunFast(5_000) }},
			} {
				if allocs := testing.AllocsPerRun(5, w.run); allocs != 0 {
					t.Fatalf("%s: steady-state tick loop allocated %.1f objects per 5k-cycle window, want 0", w.name, allocs)
				}
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
			}
			if h.Done() {
				t.Fatal("NDA op finished during measurement; enlarge the operand")
			}
		})
	}
}

// TestComputeHeavyAllocFree extends the zero-allocs contract to the
// compute-heavy host path (four workload.ComputeHeavy cores): cores
// that retire a full issue group nearly every cycle must run from
// fixed per-core state, never the heap.
func TestComputeHeavyAllocFree(t *testing.T) {
	cfg := Default(-1)
	p := workload.ComputeHeavy()
	cfg.HostProfiles = []workload.Profile{p, p, p, p}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFast(50_000)
	allocs := testing.AllocsPerRun(5, func() { s.RunFast(20_000) })
	if allocs != 0 {
		t.Fatalf("compute-heavy steady state allocated %.1f objects per 20k-cycle window, want 0", allocs)
	}
}

// TestStallHeavyAllocFree extends the zero-allocs contract to the
// stall-heavy host path (four workload.StallHeavy cores): the 64 MiB
// random footprints warm the MSHR machinery much more slowly than the
// mixed workload, so this pins the config-bound pre-sizing of the
// waiter slices, the LLC pending map, the MSHR node pool, and the
// controller overflow ring — late growth in any of them fails here.
func TestStallHeavyAllocFree(t *testing.T) {
	cfg := Default(-1)
	p := workload.StallHeavy()
	cfg.HostProfiles = []workload.Profile{p, p, p, p}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFast(150_000)
	allocs := testing.AllocsPerRun(5, func() { s.RunFast(20_000) })
	if allocs != 0 {
		t.Fatalf("stall-heavy steady state allocated %.1f objects per 20k-cycle window, want 0", allocs)
	}
}
