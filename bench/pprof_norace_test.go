// The race detector runs in C code the profiler cannot unwind, so its
// samples have no Go stack; this test only holds without it.

//go:build !race

package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"chopim/internal/workload"
)

var sink uint64

// A profile of a loop over workload.Generator.Next must land in workload:
// the math/rand frames under Next are not chopim/internal frames, so the
// innermost chopim/internal frame is Next itself.
func TestSplitGeneratorLoop(t *testing.T) {
	g := workload.NewGenerator(workload.ComputeHeavy(), 0, 1<<20, 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 10_000; i++ {
			sink += g.Next().Addr
		}
	}
	pprof.StopCPUProfile()
	split, err := splitProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if split.Samples < 50 {
		t.Skipf("only %d samples; the machine is too loaded to judge", split.Samples)
	}
	var total int64
	for _, ns := range split.CPUNS {
		total += ns
	}
	if frac := float64(split.CPUNS["workload"]) / float64(total); frac < 0.9 {
		t.Errorf("workload holds %.2f of %d samples, want >= 0.90: %v", frac, split.Samples, split.CPUNS)
	}
}
