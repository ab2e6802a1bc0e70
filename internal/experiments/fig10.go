package experiments

import (
	"chopim/internal/dram"
	"chopim/internal/sim"
)

// Fig10Row is one point of the coarse-grain NDA operation sweep.
type Fig10Row struct {
	Ranks     int // ranks per channel
	BlocksPer int // cache blocks per NDA instruction (N)
	HostIPC   float64
	NDAUtil   float64
}

// Fig10 reproduces Figure 10: host IPC and NDA bandwidth utilization as
// the per-instruction vector width N grows, for 2x2, 2x4, and 2x8
// systems running the memory-intensive mix1 with bank partitioning and
// asynchronous NRM2 launches. Small N floods the channel with launch
// packets; the effect worsens with rank count.
func Fig10(opt Options) ([]Fig10Row, error) { return figCached(opt, "fig10", fig10Rows) }

func fig10Rows(opt Options) ([]Fig10Row, error) {
	ns := []int{1, 4, 16, 64, 256, 1024, 4096}
	rankCounts := []int{2, 4, 8}
	if opt.Quick {
		ns = []int{1, 64, 4096}
		rankCounts = []int{2, 4}
	}
	type point struct{ ranks, n int }
	var points []point
	for _, ranks := range rankCounts {
		for _, n := range ns {
			points = append(points, point{ranks, n})
		}
	}
	return sharded(opt, len(points), func(i int) (Fig10Row, error) {
		p := points[i]
		cfg := sim.Default(1)
		cfg.Geom = geomWithRanks(p.ranks)
		cfg.MaxBlocksPerInstr = p.n
		// Size the vector so each rank holds 4096 blocks: every N
		// divides evenly and the largest N is one instruction.
		blocks := 4096
		if opt.Quick {
			blocks = 1024
		}
		res, err := opt.measure(cfg, "nrm2", blocks*dram.BlockBytes)
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{Ranks: p.ranks, BlocksPer: p.n, HostIPC: res.HostIPC, NDAUtil: res.NDAUtil}, nil
	})
}
