package experiments

import (
	"chopim/internal/apps"
	"chopim/internal/energy"
	"chopim/internal/nda"
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
		name    string
		mix     int
		withNDA bool
	}{
		{"host-only mix0", 0, false},
		{"host-only mix1", 1, false},
		{"concurrent mix1 + avg-gradient", 1, true},
	}
	return sharded(opt, len(scenarios), func(i int) (PowerRow, error) {
		sc := scenarios[i]
		cfg := sim.Default(sc.mix)
		var out hostOnlyOutcome
		var st nda.RankStats // zero on host-only runs
		var err error
		if sc.withNDA {
			s, err := opt.newSystem(cfg)
			if err != nil {
				return PowerRow{}, err
			}
			n, d := 2048, 512
			if opt.Quick {
				n = 512
			}
			ag, err := apps.NewAverageGradient(s.RT, apps.AverageGradientConfig{N: n, D: d})
			if err != nil {
				return PowerRow{}, err
			}
			if _, err := measureConcurrent(s, ag.Run, opt); err != nil {
				return PowerRow{}, err
			}
			out.End, out.Counts, out.PEs = s.Now(), s.Mem.Counts(), s.RT.NDACount()
			st = s.NDA.TotalStats()
		} else if out, err = opt.hostOnly(cfg); err != nil {
			return PowerRow{}, err
		}
		// Energy counters accumulate from cycle zero, so use the full
		// run duration for average power.
		c := energy.FromCmdCounts(out.Counts, sim.Seconds(out.End), out.PEs)
		// PE-side counters: one FMA per pair of floats read and one
		// buffer access per block moved (Fig 9 pipeline).
		c.FMAs = st.BlocksRead * 8
		c.BufAccess = st.BlocksRead + st.BlocksWritten
		b := energy.Compute(c)
		return PowerRow{Scenario: sc.name, AvgPowerW: b.AvgPowerW, Breakdown: b}, nil
	})
}
