package cpu_test

import (
	"sort"
	"testing"

	"chopim/internal/cpu"
	"chopim/internal/workload"
)

// TestCoreMatchesPerInstructionReference holds the run-length ROB to the
// per-instruction core it replaced, over the randomized blocking-cause
// trace and the generator on every profile the simulator runs.
func TestCoreMatchesPerInstructionReference(t *testing.T) {
	const cycles = 20_000
	t.Run("randTrace", func(t *testing.T) {
		cpu.RunLockstep(t, func() cpu.TraceSource { return cpu.NewRandTrace(11) }, cycles, 7)
	})
	var ps []workload.Profile
	for _, p := range workload.Profiles {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	ps = append(ps, workload.ComputeHeavy(), workload.StallHeavy())
	for i, p := range ps {
		t.Run(p.Name, func(t *testing.T) {
			mk := func() cpu.TraceSource { return workload.NewGenerator(p, 1<<30, 1<<30, int64(100+i)) }
			cpu.RunLockstep(t, mk, cycles, int64(i))
		})
	}
}
