package experiments

import (
	"fmt"

	"chopim/internal/apps"
	"chopim/internal/ndart"
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
	sizes := []struct {
		name  string
		bytes int
		async bool
	}{
		{"Small", 8 << 10, false},
		{"Medium", 128 << 10, false},
		{"Large", 8 << 20, false},
		{"Small+Async", 8 << 10, true},
	}
	ops := []string{"axpby", "axpbypcz", "axpy", "copy", "dot", "gemv", "nrm2", "scal"}
	if opt.Quick {
		ops = []string{"copy", "dot", "nrm2"}
		sizes = []struct {
			name  string
			bytes int
			async bool
		}{sizes[0], sizes[1], sizes[3]}
	}
	type point struct {
		op    string
		name  string
		bytes int
		async bool
	}
	var points []point
	for _, op := range ops {
		for _, sz := range sizes {
			if sz.bytes == 8<<20 && opt.Quick {
				continue
			}
			points = append(points, point{op, sz.name, sz.bytes, sz.async})
		}
	}
	return sharded(opt, len(points), func(i int) (Fig13Row, error) {
		p := points[i]
		res, err := runFig13Point(p.op, p.bytes, p.async, opt)
		if err != nil {
			return Fig13Row{}, fmt.Errorf("fig13 %s/%s: %w", p.op, p.name, err)
		}
		return Fig13Row{Op: p.op, Size: p.name, HostIPC: res.HostIPC, NDAUtil: res.NDAUtil}, nil
	})
}

func runFig13Point(op string, bytesPerRank int, async bool, opt Options) (Result, error) {
	cfg := sim.Default(1)
	s, err := opt.newSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	if op == "gemv" {
		// GEMV: 128 rows, columns sized to the per-rank operand.
		cols := bytesPerRank / 4
		m, err := s.RT.NewMatrix(128, cols, ndart.Shared)
		if err != nil {
			return Result{}, err
		}
		it := func() (*ndart.Handle, error) { return s.RT.Gemv(nil, m, nil) }
		return measureConcurrent(s, it, opt)
	}
	app, err := apps.NewMicroPlaced(s.RT, op, bytesPerRank/4, ndart.Private)
	if err != nil {
		return Result{}, err
	}
	it := app.Iterate
	if async {
		// Asynchronous macro launch: 32 iterations per launch packet.
		spec, err := apps.MicroSpec(s.RT, op, bytesPerRank/4, ndart.Private)
		if err != nil {
			return Result{}, err
		}
		it = func() (*ndart.Handle, error) {
			return s.RT.MacroFor(32, func(int) ndart.Spec { return spec })
		}
	}
	return measureConcurrent(s, it, opt)
}
