// Package svrg implements the paper's Section IV case study: 10-class
// logistic regression trained with stochastic variance-reduced gradient
// descent, in three execution modes — host-only, NDA-accelerated
// (serialized summarization), and the paper's delayed-update variant that
// runs summarization on the NDAs concurrently with the host's inner loop
// using one-epoch-stale correction terms.
//
// The optimization math is real (losses are actually minimized); the
// execution times attached to each phase come from the performance
// simulation (see internal/experiments), so convergence-versus-time
// curves reflect the simulated machine. The modes differ in time, not
// arithmetic, except for delayed update's stale correction: Train
// computes a loss sequence once, and Stamp times it for each mode.
package svrg

import (
	"math"
	"math/rand"
)

// Dataset is a dense multi-class classification problem.
type Dataset struct {
	N, D, K int
	X       []float32 // N x D row-major
	Y       []int     // labels in [0, K)
}

// Synthetic generates a deterministic Gaussian-mixture dataset standing
// in for CIFAR-10 (see DESIGN.md substitutions).
func Synthetic(n, d, k int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{N: n, D: d, K: k, X: make([]float32, n*d), Y: make([]int, n)}
	// Class centers.
	centers := make([]float64, k*d)
	for i := range centers {
		centers[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		c := i % k
		ds.Y[i] = c
		for j := 0; j < d; j++ {
			ds.X[i*d+j] = float32(centers[c*d+j] + 2.0*rng.NormFloat64())
		}
	}
	// Normalize so E||x||^2 ~= 1: keeps a single learning-rate range
	// stable across dataset scales (CIFAR pipelines normalize too).
	var sum float64
	for _, v := range ds.X {
		sum += float64(v) * float64(v)
	}
	scale := math.Sqrt(float64(n) / sum)
	for i := range ds.X {
		ds.X[i] = float32(float64(ds.X[i]) * scale)
	}
	return ds
}

// Model is the softmax-regression parameter matrix (D x K) with L2
// regularization lambda.
type Model struct {
	D, K   int
	W      []float64 // D x K row-major
	Lambda float64
}

// NewModel builds a zero-initialized model.
func NewModel(d, k int, lambda float64) *Model {
	return &Model{D: d, K: k, W: make([]float64, d*k), Lambda: lambda}
}

// Clone deep-copies the model parameters.
func (m *Model) Clone() *Model {
	w := make([]float64, len(m.W))
	copy(w, m.W)
	return &Model{D: m.D, K: m.K, W: w, Lambda: m.Lambda}
}

// logits computes x*W into out (length K).
func (m *Model) logits(x []float32, out []float64) {
	for c := 0; c < m.K; c++ {
		out[c] = 0
	}
	for j := 0; j < m.D; j++ {
		xj := float64(x[j])
		if xj == 0 {
			continue
		}
		row := m.W[j*m.K : j*m.K+m.K]
		for c := 0; c < m.K; c++ {
			out[c] += xj * row[c]
		}
	}
}

// softmax converts logits to probabilities in place, returning logsumexp.
func softmax(z []float64) float64 {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - max)
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
	return max + math.Log(sum)
}

// Loss returns the regularized mean cross-entropy over the dataset.
func (m *Model) Loss(ds *Dataset) float64 {
	z := make([]float64, m.K)
	var total float64
	for i := 0; i < ds.N; i++ {
		x := ds.X[i*m.D : (i+1)*m.D]
		m.logits(x, z)
		softmax(z)
		p := z[ds.Y[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		total += -math.Log(p)
	}
	var reg float64
	for _, w := range m.W {
		reg += w * w
	}
	return total/float64(ds.N) + 0.5*m.Lambda*reg
}

// FullGradient computes the exact regularized gradient at the model (the
// summarization task the NDAs accelerate).
func (m *Model) FullGradient(ds *Dataset) []float64 {
	g := make([]float64, m.D*m.K)
	z := make([]float64, m.K)
	for i := 0; i < ds.N; i++ {
		x := ds.X[i*m.D : (i+1)*m.D]
		m.logits(x, z)
		softmax(z)
		z[ds.Y[i]] -= 1
		for j := 0; j < m.D; j++ {
			xj := float64(x[j])
			if xj == 0 {
				continue
			}
			row := g[j*m.K : j*m.K+m.K]
			for c := 0; c < m.K; c++ {
				row[c] += xj * z[c]
			}
		}
	}
	inv := 1 / float64(ds.N)
	for i := range g {
		g[i] = g[i]*inv + m.Lambda*m.W[i]
	}
	return g
}

// sampleGradInto writes sample i's regularized gradient contribution
// into buf (D*K), reusing z for probabilities.
func (m *Model) sampleGradInto(ds *Dataset, i int, z, buf []float64) {
	x := ds.X[i*m.D : (i+1)*m.D]
	m.logits(x, z)
	softmax(z)
	z[ds.Y[i]] -= 1
	for j := 0; j < m.D; j++ {
		xj := float64(x[j])
		row := buf[j*m.K : j*m.K+m.K]
		for c := 0; c < m.K; c++ {
			row[c] = xj * z[c]
		}
	}
}

// Timing carries the simulated execution times (seconds) of each SVRG
// phase, measured by the performance simulation.
type Timing struct {
	SummarizeNDA  float64 // full-gradient pass on the NDAs
	SummarizeHost float64 // full-gradient pass on the host
	InnerIter     float64 // one host inner-loop iteration
	Exchange      float64 // s/g exchange + fence (delayed update)
}

// Mode selects the execution strategy.
type Mode int

// Execution modes of Figure 15.
const (
	HostOnly Mode = iota
	Accelerated
	DelayedUpdate
)

// DelayedEpoch is the delayed-update epoch: the inner iterations the host
// runs while the NDAs summarize.
func (t Timing) DelayedEpoch() int { return int(t.SummarizeNDA/t.InnerIter) + 1 }

// Point is one convergence sample.
type Point struct {
	Seconds float64
	Loss    float64
}

// TrainConfig controls one training run. Host-only and accelerated
// training are the same optimization; delayed update differs only in
// the stale correction term and its epoch, Timing.DelayedEpoch.
type TrainConfig struct {
	Epoch    int     // inner iterations per outer loop
	LR       float64 // learning rate
	Momentum float64
	Outers   int // outer-loop iterations to run
	Seed     int64

	// Delayed corrects with the snapshot one outer iteration stale, as
	// delayed update does while the NDAs summarize the current one.
	Delayed bool

	// Stop, when set, ends training at the first loss it accepts. The
	// losses before it are those of the full run.
	Stop func(loss float64) bool
}

// Train returns the loss before the first outer iteration and after
// each one.
func Train(ds *Dataset, lambda float64, cfg TrainConfig) []float64 {
	m := NewModel(ds.D, ds.K, lambda)
	rng := rand.New(rand.NewSource(cfg.Seed))
	dk := ds.D * ds.K

	snap := m.Clone()          // s: snapshot the correction is computed at
	g := snap.FullGradient(ds) // g: correction term for snap
	prevSnap, prevG := snap, g // delayed update: one outer iteration behind
	vel := make([]float64, dk) // momentum buffer

	z := make([]float64, ds.K)
	gw := make([]float64, dk)
	gs := make([]float64, dk)

	losses := []float64{m.Loss(ds)}
	for outer := 0; outer < cfg.Outers; outer++ {
		if cfg.Stop != nil && cfg.Stop(losses[len(losses)-1]) {
			break
		}
		useSnap, useG := snap, g
		if cfg.Delayed {
			useSnap, useG = prevSnap, prevG
		}
		for it := 0; it < cfg.Epoch; it++ {
			i := rng.Intn(ds.N)
			m.sampleGradInto(ds, i, z, gw)
			useSnap.sampleGradInto(ds, i, z, gs)
			for j := 0; j < dk; j++ {
				grad := gw[j] - gs[j] + useG[j] + m.Lambda*(m.W[j]-useSnap.W[j])
				vel[j] = cfg.Momentum*vel[j] - cfg.LR*grad
				m.W[j] += vel[j]
			}
		}

		// Outer boundary: take a new snapshot and its correction term.
		if cfg.Delayed {
			prevSnap, prevG = snap, g
		}
		snap = m.Clone()
		g = snap.FullGradient(ds)
		losses = append(losses, m.Loss(ds))
	}
	return losses
}

// Stamp attaches to losses from Train the cumulative simulated time of
// training them in mode under t. epoch is the run's inner iterations per
// outer loop; delayed update, whose inner loop the summarization hides,
// ignores it.
func Stamp(losses []float64, mode Mode, epoch int, t Timing) []Point {
	var now, step float64
	switch mode {
	case HostOnly:
		now, step = t.SummarizeHost, float64(epoch)*t.InnerIter+t.SummarizeHost
	case Accelerated:
		// Serialized: host idles while NDAs summarize.
		now, step = t.SummarizeNDA, float64(epoch)*t.InnerIter+t.SummarizeNDA
	case DelayedUpdate:
		// Parallel: the epoch's wall time is the summarization time
		// (inner loop fully overlapped) plus the exchange.
		now, step = t.SummarizeNDA, t.SummarizeNDA+t.Exchange
	}
	pts := make([]Point, len(losses))
	for i, l := range losses {
		pts[i] = Point{now, l}
		now += step
	}
	return pts
}

// TimeToReach returns the first time at which the trajectory's loss gap
// to optimum drops below eps, or ok=false.
func TimeToReach(pts []Point, optimum, eps float64) (float64, bool) {
	for _, p := range pts {
		if Reached(p.Loss, optimum, eps) {
			return p.Seconds, true
		}
	}
	return 0, false
}

// Reached is TimeToReach's test: the loss gap to optimum is at most eps.
func Reached(loss, optimum, eps float64) bool { return loss-optimum <= eps }

// Optimum estimates the minimal loss by a long training run.
func Optimum(ds *Dataset, lambda float64, seed int64) float64 {
	losses := Train(ds, lambda, TrainConfig{
		Epoch: 2 * ds.N, LR: 0.05, Momentum: 0.9, Outers: 40, Seed: seed,
	})
	min := math.Inf(1)
	for _, l := range losses {
		if l < min {
			min = l
		}
	}
	return min
}
