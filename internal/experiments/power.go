package experiments

import (
	"chopim/internal/energy"
	"chopim/internal/sim"
)

// PowerRow summarizes the Section VII memory-power study.
type PowerRow struct {
	Scenario  string
	AvgPowerW float64
	Breakdown energy.Breakdown
}

// Power reproduces the paper's memory-power estimates: host-only power
// under the most intensive mixes, NDA power under the average-gradient
// kernel, and the concurrent total — which stays below the host-only
// theoretical maximum because NDA accesses use low-energy internal paths.
func Power(opt Options) ([]PowerRow, error) { return figCached(opt, "power", powerRows) }

func powerRows(opt Options) ([]PowerRow, error) {
	scenarios := []struct {
		name string
		mix  int
		wl   string
	}{
		{"host-only mix0", 0, ""},
		{"host-only mix1", 1, ""},
		{"concurrent mix1 + avg-gradient", 1, "svrg"},
	}
	return sharded(opt, len(scenarios), func(i int) (PowerRow, error) {
		sc := scenarios[i]
		out, err := opt.measure(sim.Default(sc.mix), sc.wl, 0)
		if err != nil {
			return PowerRow{}, err
		}
		// Energy counters accumulate from cycle zero, so use the full
		// run duration for average power.
		c := energy.FromCmdCounts(out.Counts, sim.Seconds(out.End), out.PEs)
		// PE-side counters: one FMA per pair of floats read and one
		// buffer access per block moved (Fig 9 pipeline).
		c.FMAs = out.NDA.BlocksRead * 8
		c.BufAccess = out.NDA.BlocksRead + out.NDA.BlocksWritten
		b := energy.Compute(c)
		return PowerRow{Scenario: sc.name, AvgPowerW: b.AvgPowerW, Breakdown: b}, nil
	})
}
