package experiments

import (
	"fmt"

	"chopim/internal/sim"
)

// Fig14Row compares Chopim with rank partitioning for one workload and
// rank count.
type Fig14Row struct {
	Ranks    int // ranks per channel in the Chopim configuration
	Workload string

	ChopimHostIPC float64
	ChopimNDABW   float64 // GB/s

	RPHostIPC float64 // host confined to half the ranks
	RPNDABW   float64 // NDAs confined to the other half
}

// Fig14 reproduces Figure 14: Chopim versus rank partitioning (RP) at
// 2x2 and 2x4, over DOT, COPY, the SVRG average-gradient kernel, CG, and
// streamcluster. Under RP, host and NDAs each own half the ranks and
// never interact — modeled as two independent half-size systems. Chopim
// shares all ranks and both sides exceed their RP counterparts; the gap
// widens with rank count because short idle periods grow.
func Fig14(opt Options) ([]Fig14Row, error) { return figCached(opt, "fig14", fig14Rows) }

func fig14Rows(opt Options) ([]Fig14Row, error) {
	workloads := []string{"dot", "copy", "svrg", "cg", "sc"}
	rankCounts := []int{2, 4}
	if opt.Quick {
		workloads = []string{"dot", "copy"}
		rankCounts = []int{2}
	}
	// The RP host half runs host-only on half the ranks, so it depends
	// on the rank count alone: one point per rank count, shared by every
	// workload's row.
	rpHost, err := sharded(opt, len(rankCounts), func(i int) (float64, error) {
		cfg := sim.Default(1)
		cfg.Geom = geomWithRanks(rankCounts[i] / 2)
		out, err := opt.measure(cfg, "", 0)
		return out.HostIPC, err
	})
	if err != nil {
		return nil, err
	}
	type point struct {
		ri int // index into rankCounts
		wl string
	}
	var points []point
	for ri := range rankCounts {
		for _, wl := range workloads {
			points = append(points, point{ri, wl})
		}
	}
	return sharded(opt, len(points), func(i int) (Fig14Row, error) {
		p := points[i]
		ranks := rankCounts[p.ri]
		row := Fig14Row{Ranks: ranks, Workload: p.wl, RPHostIPC: rpHost[p.ri]}

		// Chopim: full system, concurrent sharing.
		cfg := sim.Default(1)
		cfg.Geom = geomWithRanks(ranks)
		res, err := opt.measure(cfg, p.wl, opt.operandBytes())
		if err != nil {
			return row, fmt.Errorf("fig14 %s: %w", p.wl, err)
		}
		row.ChopimHostIPC = res.HostIPC
		row.ChopimNDABW = res.NDABWGBs

		// Rank partitioning: NDAs on the other half of the ranks, alone.
		ncfg := sim.Default(-1)
		ncfg.Geom = geomWithRanks(ranks / 2)
		nres, err := opt.measure(ncfg, p.wl, opt.operandBytes())
		if err != nil {
			return row, fmt.Errorf("fig14 %s: %w", p.wl, err)
		}
		row.RPNDABW = nres.NDABWGBs
		return row, nil
	})
}
