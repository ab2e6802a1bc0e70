package experiments

import (
	"chopim/internal/sim"
	"chopim/internal/stats"
	"chopim/internal/workload"
)

// Fig2Row is one mix's rank idle-time breakdown (fractions of total
// rank-cycles per bucket).
type Fig2Row struct {
	Mix       string
	Fractions [stats.NumIdleBuckets]float64
}

// Fig2 reproduces Figure 2: rank idle-time versus idleness granularity
// for the nine host-only application mixes. It shows that most idle
// periods are shorter than 250 cycles, motivating fine-grain
// interleaving.
func Fig2(opt Options) ([]Fig2Row, error) { return figCached(opt, "fig2", fig2Rows) }

func fig2Rows(opt Options) ([]Fig2Row, error) {
	return sharded(opt, len(workload.Mixes), func(mix int) (Fig2Row, error) {
		out, err := opt.measure(sim.Default(mix), "", 0)
		if err != nil {
			return Fig2Row{}, err
		}
		h := stats.IdleHist{Cycles: out.Idle}
		return Fig2Row{Mix: workload.MixName(mix), Fractions: h.Fractions()}, nil
	})
}
