package experiments

import (
	"chopim/internal/sim"
	"chopim/internal/workload"
)

// Fig11Row compares shared versus partitioned banks for one mix.
type Fig11Row struct {
	Mix string
	// Host IPC and NDA utilization per configuration.
	SharedDOT, SharedCOPY Result
	PartDOT, PartCOPY     Result
	IdealHostIPC          float64 // host-only, no NDA contention
}

// Fig11 reproduces Figure 11: concurrent access with and without bank
// partitioning under read-intensive (DOT) and write-intensive (COPY)
// NDA operations across all mixes. Partitioning removes host-to-NDA bank
// conflicts and chiefly helps the read-intensive case; COPY also hurts
// host IPC through write turnarounds.
func Fig11(opt Options) ([]Fig11Row, error) { return figCached(opt, "fig11", fig11Rows) }

func fig11Rows(opt Options) ([]Fig11Row, error) {
	n := len(workload.Mixes)
	if opt.Quick {
		n = 2
	}
	mixes := make([]int, n)
	for i := range mixes {
		mixes[i] = i
	}
	return fig11Mixes(opt, mixes)
}

// fig11Mixes runs the Fig 11 comparison for selected mixes: five
// independent simulation points per mix (four shared/partitioned x
// DOT/COPY combinations plus the idealized host-only run), sharded
// across the runner and reassembled per mix.
func fig11Mixes(opt Options, mixes []int) ([]Fig11Row, error) {
	type point struct {
		mix  int
		part bool
		op   string // "" = idealized host-only run (partitioned, as Fig 2's)
	}
	var points []point
	for _, mix := range mixes {
		points = append(points,
			point{mix, false, "dot"}, point{mix, false, "copy"},
			point{mix, true, "dot"}, point{mix, true, "copy"},
			point{mix, true, ""})
	}
	results, err := sharded(opt, len(points), func(i int) (Result, error) {
		p := points[i]
		cfg := sim.Default(p.mix)
		cfg.Partitioned = p.part
		out, err := opt.measure(cfg, p.op, opt.operandBytes())
		return out.Result, err
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for i, mix := range mixes {
		base := i * 5
		rows = append(rows, Fig11Row{
			Mix:          workload.MixName(mix),
			SharedDOT:    results[base],
			SharedCOPY:   results[base+1],
			PartDOT:      results[base+2],
			PartCOPY:     results[base+3],
			IdealHostIPC: results[base+4].HostIPC,
		})
	}
	return rows, nil
}
