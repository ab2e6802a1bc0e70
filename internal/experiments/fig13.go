package experiments

import (
	"fmt"

	"chopim/internal/sim"
)

// Fig13Row is one (operation, operand-size) measurement.
type Fig13Row struct {
	Op      string
	Size    string // Small, Medium, Large, Small+Async
	HostIPC float64
	NDAUtil float64
}

// Fig13 reproduces Figure 13: every Table I NDA operation under three
// per-rank operand sizes (8 KB, 128 KB, 8 MB) plus asynchronous launch
// at the small size, concurrent with mix1 under next-rank prediction.
// Short ops suffer launch overhead and load imbalance; asynchronous
// macro launches recover most of the loss.
func Fig13(opt Options) ([]Fig13Row, error) { return figCached(opt, "fig13", fig13Rows) }

func fig13Rows(opt Options) ([]Fig13Row, error) {
	type size struct {
		name  string
		bytes int
		async bool
	}
	sizes := []size{
		{"Small", 8 << 10, false},
		{"Medium", 128 << 10, false},
		{"Large", 8 << 20, false},
		{"Small+Async", 8 << 10, true},
	}
	ops := []string{"axpby", "axpbypcz", "axpy", "copy", "dot", "gemv", "nrm2", "scal"}
	if opt.Quick {
		ops = []string{"copy", "dot", "nrm2"}
		sizes = []size{sizes[0], sizes[1], sizes[3]}
	}
	type point struct {
		op string
		size
	}
	var points []point
	for _, op := range ops {
		for _, sz := range sizes {
			points = append(points, point{op, sz})
		}
	}
	return sharded(opt, len(points), func(i int) (Fig13Row, error) {
		p := points[i]
		// GEMV's Small+Async row runs the blocking GEMV, the same
		// point as its Small row; a macro form would move the row.
		wl := p.op
		if p.async && p.op != "gemv" {
			wl = "async:" + p.op
		}
		res, err := opt.measure(sim.Default(1), wl, p.bytes)
		if err != nil {
			return Fig13Row{}, fmt.Errorf("fig13 %s/%s: %w", p.op, p.name, err)
		}
		return Fig13Row{Op: p.op, Size: p.name, HostIPC: res.HostIPC, NDAUtil: res.NDAUtil}, nil
	})
}
