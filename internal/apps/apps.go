// Package apps builds the paper's NDA application kernels on top of the
// Chopim runtime API: the SVRG average-gradient summarization of Fig 8,
// a conjugate-gradient solver (the paper's CG, Eigen-based in the
// original), and a streamcluster-style distance kernel (NU-MineBench SC).
// Fig 14 uses CG and SC as op mixes whose behaviour falls between the
// DOT and COPY extremes.
package apps

import (
	"fmt"

	"chopim/internal/ndart"
)

// App is a relaunchable NDA workload: Iterate schedules one outer
// iteration's operations and returns a completion handle, so experiment
// drivers can keep the NDAs busy for a whole measurement window.
type App struct {
	Name    string
	Iterate func() (*ndart.Handle, error)
}

// NewCG allocates a conjugate-gradient solve of an m x m dense system
// and returns its iteration kernel: q = A*p, two dots, and three
// AXPY-family updates per iteration (read-heavy with moderate writes).
func NewCG(rt *ndart.Runtime, m int) (*App, error) {
	a, err := rt.NewMatrix(m, m, ndart.Shared)
	if err != nil {
		return nil, fmt.Errorf("apps: CG matrix: %w", err)
	}
	vecs := make([]*ndart.Vector, 4) // x, r, p, q
	for i := range vecs {
		if vecs[i], err = rt.NewVector(m, ndart.Shared); err != nil {
			return nil, fmt.Errorf("apps: CG vector %d: %w", i, err)
		}
	}
	x, r, p, q := vecs[0], vecs[1], vecs[2], vecs[3]
	return &App{
		Name: "CG",
		Iterate: func() (*ndart.Handle, error) {
			hs := make([]*ndart.Handle, 0, 6)
			add := func(h *ndart.Handle, err error) error {
				if err != nil {
					return err
				}
				hs = append(hs, h)
				return nil
			}
			if err := add(rt.Gemv(q, a, p)); err != nil { // q = A p
				return nil, err
			}
			if err := add(rt.Dot(p, q)); err != nil { // p . q
				return nil, err
			}
			if err := add(rt.Dot(r, r)); err != nil { // r . r
				return nil, err
			}
			if err := add(rt.Axpy(x, p)); err != nil { // x += alpha p
				return nil, err
			}
			if err := add(rt.Axpy(r, q)); err != nil { // r -= alpha q
				return nil, err
			}
			if err := add(rt.Axpby(p, r, p)); err != nil { // p = r + beta p
				return nil, err
			}
			return ndart.Join(hs...), nil
		},
	}, nil
}

// NewStreamcluster allocates an n-point, d-dimensional clustering kernel
// (points vs. k centers): per iteration it streams the point matrix for
// distance evaluation (GEMV-like), squares via XMY, and updates per-point
// assignment weights (AXPY) — read-dominant with light writes.
func NewStreamcluster(rt *ndart.Runtime, n, d, k int) (*App, error) {
	points, err := rt.NewMatrix(n, d, ndart.Shared)
	if err != nil {
		return nil, fmt.Errorf("apps: SC points: %w", err)
	}
	dist, err := rt.NewVector(n, ndart.Shared)
	if err != nil {
		return nil, err
	}
	best, err := rt.NewVector(n, ndart.Shared)
	if err != nil {
		return nil, err
	}
	weight, err := rt.NewVector(n, ndart.Shared)
	if err != nil {
		return nil, err
	}
	return &App{
		Name: "SC",
		Iterate: func() (*ndart.Handle, error) {
			hs := make([]*ndart.Handle, 0, k+2)
			for c := 0; c < k; c++ {
				h, err := rt.Gemv(dist, points, nil)
				if err != nil {
					return nil, err
				}
				hs = append(hs, h)
			}
			h, err := rt.Xmy(best, dist, dist)
			if err != nil {
				return nil, err
			}
			hs = append(hs, h)
			if h, err = rt.Axpy(weight, best); err != nil {
				return nil, err
			}
			hs = append(hs, h)
			return ndart.Join(hs...), nil
		},
	}, nil
}

// NewMicroPlaced returns a relaunchable single-op microbenchmark over
// operands of n elements placed by p (the DOT / COPY extremes of Figs
// 11-14); Private gives every rank NDA an n-element local share (Fig
// 13's per-rank sizing). Each iteration launches MicroSpec's Spec.
func NewMicroPlaced(rt *ndart.Runtime, name string, n int, p ndart.Placement) (*App, error) {
	spec, err := MicroSpec(rt, name, n, p)
	if err != nil {
		return nil, err
	}
	return &App{Name: name, Iterate: func() (*ndart.Handle, error) { return rt.Launch(spec) }}, nil
}

// MicroSpec allocates the op's operands, n elements each placed by p, in
// the order x, y, z, and returns its Spec.
func MicroSpec(rt *ndart.Runtime, name string, n int, p ndart.Placement) (ndart.Spec, error) {
	x, err := rt.NewVector(n, p)
	if err != nil {
		return ndart.Spec{}, err
	}
	y, err := rt.NewVector(n, p)
	if err != nil {
		return ndart.Spec{}, err
	}
	switch name {
	case "dot":
		return ndart.DotSpec(x, y), nil
	case "copy":
		return ndart.CopySpec(y, x), nil
	case "nrm2":
		return ndart.Nrm2Spec(x), nil
	case "scal":
		return ndart.ScalSpec(x), nil
	case "axpy":
		return ndart.AxpySpec(y, x), nil
	case "xmy":
		return ndart.XmySpec(y, x, x), nil
	case "axpby":
		return ndart.AxpbySpec(y, x, y), nil
	case "axpbypcz":
		z, err := rt.NewVector(n, p)
		if err != nil {
			return ndart.Spec{}, err
		}
		return ndart.AxpbypczSpec(z, x, y, z), nil
	}
	return ndart.Spec{}, fmt.Errorf("apps: unknown micro op %q", name)
}

// AverageGradientConfig sizes the Fig 8 summarization kernel.
type AverageGradientConfig struct {
	N, D int // dataset rows and features
}

// AverageGradient builds the Fig 8 kernel: gemv over X, two elementwise
// passes, a scal, and the asynchronous per-row AXPY macro loop that
// streams X a second time into per-NDA private accumulators.
type AverageGradient struct {
	rt   *ndart.Runtime
	x    *ndart.Matrix
	wVec *ndart.Vector
	y    *ndart.Vector
	v    *ndart.Vector
	a    *ndart.Vector
	apvt *ndart.Vector
	cfg  AverageGradientConfig
}

// NewAverageGradient allocates the kernel's operands per Fig 8.
func NewAverageGradient(rt *ndart.Runtime, cfg AverageGradientConfig) (*AverageGradient, error) {
	ag := &AverageGradient{rt: rt, cfg: cfg}
	var err error
	if ag.x, err = rt.NewMatrix(cfg.N, cfg.D, ndart.Shared); err != nil {
		return nil, err
	}
	if ag.wVec, err = rt.NewVector(cfg.D, ndart.Shared); err != nil {
		return nil, err
	}
	if ag.y, err = rt.NewVector(cfg.N, ndart.Shared); err != nil {
		return nil, err
	}
	if ag.v, err = rt.NewVector(cfg.N, ndart.Shared); err != nil {
		return nil, err
	}
	if ag.a, err = rt.NewVector(cfg.D, ndart.Shared); err != nil {
		return nil, err
	}
	if ag.apvt, err = rt.NewVector(cfg.D, ndart.Private); err != nil {
		return nil, err
	}
	return ag, nil
}

// Run schedules one full summarization and returns its handle. The
// sigmoid and final reduce run on the host; no DRAM traffic is modeled
// for them.
func (ag *AverageGradient) Run() (*ndart.Handle, error) {
	rt := ag.rt
	hs := make([]*ndart.Handle, 0, 6)
	h, err := rt.Gemv(ag.y, ag.x, ag.wVec) // y = X w
	if err != nil {
		return nil, err
	}
	hs = append(hs, h)
	if h, err = rt.Xmy(ag.v, ag.v, ag.y); err != nil {
		return nil, err
	}
	hs = append(hs, h)
	// host::sigmoid(v, v) is compute on the host over v (cache-resident
	// after the xmy); no DRAM traffic modeled.
	if h, err = rt.Xmy(ag.v, ag.v, ag.y); err != nil {
		return nil, err
	}
	hs = append(hs, h)
	if h, err = rt.Scal(ag.v); err != nil {
		return nil, err
	}
	hs = append(hs, h)
	// Macro loop: a_pvt += v[i] * X[i] for every row, streaming X again.
	// Launched asynchronously with one packet per rank (Section V).
	h, err = rt.MacroFor(ag.cfg.N, func(i int) ndart.Spec {
		return ndart.AxpySpec(ag.apvt, ag.x.RowView(i))
	})
	if err != nil {
		return nil, err
	}
	hs = append(hs, h)
	// host::reduce(a, a_pvt) then nda::axpy(a, lambda, w).
	if h, err = rt.Axpy(ag.a, ag.wVec); err != nil {
		return nil, err
	}
	hs = append(hs, h)
	return ndart.Join(hs...), nil
}
