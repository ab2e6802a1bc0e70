package experiments

import (
	"chopim/internal/nda"
	"chopim/internal/sim"
	"chopim/internal/workload"
)

// PolicyPoint labels one write-throttling configuration.
type PolicyPoint struct {
	Label string
	Res   Result
}

// Fig12Row holds every policy's result for one mix.
type Fig12Row struct {
	Mix    string
	Points []PolicyPoint
}

// Fig12 reproduces Figure 12: the write-intensive COPY under four NDA
// write-issue policies — stochastic 1/16, stochastic 1/4, next-rank
// prediction, and unthrottled issue-if-idle. Throttling trades NDA
// bandwidth for host IPC. Next-rank prediction needs no tuned
// probability and dominates neither stochastic setting: at full budget
// its host IPC falls between stochastic 1/16's and 1/4's in mixes 0-7
// (mix 8 sits above both), and its NDA utilisation lies closer to
// 1/4's, within 0.04 of it in every mix. Mix 0, host IPC / NDA
// utilisation: next-rank 0.667 / 0.484, 1/16 0.832 / 0.242, 1/4
// 0.510 / 0.522.
func Fig12(opt Options) ([]Fig12Row, error) { return figCached(opt, "fig12", fig12Rows) }

func fig12Rows(opt Options) ([]Fig12Row, error) {
	type policyCfg struct {
		label string
		pol   nda.Policy
		prob  float64
	}
	policies := []policyCfg{
		{"Stochastic_issue(1/16)", nda.Stochastic, 1.0 / 16},
		{"Stochastic_issue(1/4)", nda.Stochastic, 1.0 / 4},
		{"Predict_next_rank", nda.NextRank, 0},
		{"Issue_if_idle", nda.IssueIfIdle, 0},
	}
	mixes := len(workload.Mixes)
	if opt.Quick {
		mixes = 2
	}
	type point struct {
		mix int
		p   policyCfg
	}
	var points []point
	for mix := 0; mix < mixes; mix++ {
		for _, p := range policies {
			points = append(points, point{mix, p})
		}
	}
	results, err := sharded(opt, len(points), func(i int) (Result, error) {
		pt := points[i]
		cfg := sim.Default(pt.mix)
		cfg.NDA.Policy = pt.p.pol
		cfg.NDA.StochasticProb = pt.p.prob
		out, err := opt.measure(cfg, "copy", opt.operandBytes())
		return out.Result, err
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for mix := 0; mix < mixes; mix++ {
		row := Fig12Row{Mix: workload.MixName(mix)}
		for j, p := range policies {
			row.Points = append(row.Points, PolicyPoint{Label: p.label, Res: results[mix*len(policies)+j]})
		}
		rows = append(rows, row)
	}
	return rows, nil
}
