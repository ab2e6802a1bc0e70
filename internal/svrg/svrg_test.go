package svrg

import (
	"math"
	"math/rand"
	"testing"
)

func smallDataset() *Dataset { return Synthetic(256, 32, 4, 5) }

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(64, 8, 3, 9)
	b := Synthetic(64, 8, 3, 9)
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("datasets differ for equal seeds")
		}
	}
	for i := range a.Y {
		if a.Y[i] < 0 || a.Y[i] >= 3 {
			t.Fatalf("label %d out of range", a.Y[i])
		}
	}
}

func TestLossDecreasesUnderTraining(t *testing.T) {
	ds := smallDataset()
	m := NewModel(ds.D, ds.K, 1e-3)
	l0 := m.Loss(ds)
	losses := Train(ds, 1e-3, TrainConfig{Epoch: ds.N, LR: 0.05, Momentum: 0.9, Outers: 10, Seed: 3})
	final := losses[len(losses)-1]
	if final >= l0 {
		t.Errorf("loss did not decrease: %.4f -> %.4f", l0, final)
	}
	if final > 0.9*l0 {
		t.Errorf("loss barely moved: %.4f -> %.4f", l0, final)
	}
}

func TestFullGradientZeroAtOptimumDirection(t *testing.T) {
	// At the zero model on a balanced problem, the gradient must be
	// finite and nonzero.
	ds := smallDataset()
	m := NewModel(ds.D, ds.K, 1e-3)
	g := m.FullGradient(ds)
	var norm float64
	for _, v := range g {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("gradient has non-finite entries")
		}
		norm += v * v
	}
	if norm == 0 {
		t.Error("gradient identically zero at init")
	}
}

func TestGradientDescentDirection(t *testing.T) {
	ds := smallDataset()
	m := NewModel(ds.D, ds.K, 1e-3)
	g := m.FullGradient(ds)
	l0 := m.Loss(ds)
	for i := range m.W {
		m.W[i] -= 0.01 * g[i]
	}
	if m.Loss(ds) >= l0 {
		t.Error("step along negative gradient increased loss")
	}
}

func TestTimeAccounting(t *testing.T) {
	ds := smallDataset()
	tm := Timing{SummarizeHost: 1.0, SummarizeNDA: 0.1, InnerIter: 0.001}
	losses := Train(ds, 1e-3, TrainConfig{Epoch: 100, LR: 0.05, Outers: 3, Seed: 1})
	ho := Stamp(losses, HostOnly, 100, tm)
	acc := Stamp(losses, Accelerated, 100, tm)
	// Same iteration counts; ACC summarizes 10x faster, so total time
	// must be strictly smaller.
	if acc[len(acc)-1].Seconds >= ho[len(ho)-1].Seconds {
		t.Errorf("ACC time %.3f >= HO time %.3f", acc[len(acc)-1].Seconds, ho[len(ho)-1].Seconds)
	}
	// HO epoch: outer cost = epoch*inner + summarize.
	wantStep := 100*0.001 + 1.0
	got := ho[2].Seconds - ho[1].Seconds
	if math.Abs(got-wantStep) > 1e-9 {
		t.Errorf("HO outer step time %.6f, want %.6f", got, wantStep)
	}
}

func TestDelayedUpdateOverlaps(t *testing.T) {
	ds := smallDataset()
	tm := Timing{SummarizeNDA: 0.05, InnerIter: 0.001, Exchange: 0.002}
	losses := Train(ds, 1e-3, TrainConfig{Epoch: tm.DelayedEpoch(), LR: 0.05, Outers: 4, Seed: 1, Delayed: true})
	du := Stamp(losses, DelayedUpdate, 0, tm)
	// Per outer: summarize + exchange only (inner loop hidden).
	step := du[2].Seconds - du[1].Seconds
	if math.Abs(step-(0.05+0.002)) > 1e-9 {
		t.Errorf("delayed-update outer step %.6f, want %.6f", step, 0.052)
	}
	// And it still converges.
	if du[len(du)-1].Loss >= du[0].Loss {
		t.Error("delayed update failed to reduce loss")
	}
}

func TestTimeToReach(t *testing.T) {
	pts := []Point{{1, 10}, {2, 5}, {3, 1}, {4, 0.5}}
	if tt, ok := TimeToReach(pts, 0, 1); !ok || tt != 3 {
		t.Errorf("TimeToReach = (%v,%v), want (3,true)", tt, ok)
	}
	if _, ok := TimeToReach(pts, 0, 0.1); ok {
		t.Error("unreachable threshold reported reached")
	}
}

// TestRunStopsAtFirstReachedPoint: training with a stop rule gives
// the full run's prefix up to the first loss the rule accepts, for both
// the current and the stale correction term.
func TestRunStopsAtFirstReachedPoint(t *testing.T) {
	ds := smallDataset()
	for _, delayed := range []bool{false, true} {
		cfg := TrainConfig{Epoch: ds.N, LR: 0.05, Momentum: 0.9, Outers: 10, Seed: 3, Delayed: delayed}
		full := Train(ds, 1e-3, cfg)
		// A threshold the run first meets midway.
		eps := full[len(full)/2]
		first := -1
		for i, l := range full {
			if Reached(l, 0, eps) {
				first = i
				break
			}
		}
		if first <= 0 || first == len(full)-1 {
			t.Fatalf("delayed=%v: eps %v first reached at point %d of %d; want an interior point", delayed, eps, first, len(full))
		}
		cfg.Stop = func(l float64) bool { return Reached(l, 0, eps) }
		got := Train(ds, 1e-3, cfg)
		if len(got) != first+1 {
			t.Fatalf("delayed=%v: stopped run has %d points, want %d", delayed, len(got), first+1)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(full[i]) {
				t.Fatalf("delayed=%v: loss %d = %v, full run's %v", delayed, i, got[i], full[i])
			}
		}
	}
}

func TestOptimumBelowTrainedLoss(t *testing.T) {
	ds := smallDataset()
	opt := Optimum(ds, 1e-3, 2)
	losses := Train(ds, 1e-3, TrainConfig{Epoch: ds.N, LR: 0.05, Momentum: 0.9, Outers: 5, Seed: 3})
	if opt > losses[len(losses)-1]+1e-9 {
		t.Errorf("optimum %.6f above a short run's loss %.6f", opt, losses[len(losses)-1])
	}
}

// TestTrainStampMatchesReference: training plus stamping reproduces the
// single-pass trainer it replaced (referenceRun, which trains every mode
// separately and stamps as it goes) point for point, bit for bit, in
// every mode, with and without a stop rule. Host-only and accelerated
// runs stamp the same trained losses.
func TestTrainStampMatchesReference(t *testing.T) {
	ds := smallDataset()
	tm := Timing{SummarizeNDA: 3.1e-4, SummarizeHost: 1.7e-3, InnerIter: 1.3e-6, Exchange: 2.9e-6}
	const epoch, outers = 97, 9
	trained := Train(ds, 1e-3, TrainConfig{Epoch: epoch, LR: 0.05, Momentum: 0.9, Outers: outers, Seed: 3})
	for _, mode := range []Mode{HostOnly, Accelerated, DelayedUpdate} {
		ref := refConfig{Mode: mode, Epoch: epoch, LR: 0.05, Momentum: 0.9, Outers: outers, Seed: 3, Timing: tm}
		full := referenceRun(ds, 1e-3, ref)
		// A threshold the run first meets midway.
		eps := full[len(full)/2].Loss
		for _, stop := range []bool{false, true} {
			ref.Stop = nil
			cfg := TrainConfig{Epoch: epoch, LR: 0.05, Momentum: 0.9, Outers: outers, Seed: 3}
			if stop {
				ref.Stop = func(p Point) bool { return Reached(p.Loss, 0, eps) }
				cfg.Stop = func(l float64) bool { return Reached(l, 0, eps) }
			}
			losses := trained
			if mode == DelayedUpdate {
				cfg.Epoch, cfg.Delayed = tm.DelayedEpoch(), true
				losses = Train(ds, 1e-3, cfg)
			} else if stop {
				losses = Train(ds, 1e-3, cfg)
			}
			want := referenceRun(ds, 1e-3, ref)
			got := Stamp(losses, mode, epoch, tm)
			if len(got) != len(want) {
				t.Fatalf("mode %d stop=%v: %d points, reference %d", mode, stop, len(got), len(want))
			}
			if stop && len(want) == len(full) {
				t.Fatalf("mode %d: eps %v did not stop the reference early", mode, eps)
			}
			for i := range want {
				if math.Float64bits(got[i].Seconds) != math.Float64bits(want[i].Seconds) ||
					math.Float64bits(got[i].Loss) != math.Float64bits(want[i].Loss) {
					t.Fatalf("mode %d stop=%v: point %d = %+v, reference %+v", mode, stop, i, got[i], want[i])
				}
			}
		}
	}
}

// refConfig and referenceRun are the trainer Train and Stamp replaced,
// kept as their oracle: one loop that trains in a mode and stamps each
// point as it goes.
type refConfig struct {
	Mode     Mode
	Epoch    int
	LR       float64
	Momentum float64
	Outers   int
	Seed     int64
	Timing   Timing
	Stop     func(Point) bool
}

func referenceRun(ds *Dataset, lambda float64, cfg refConfig) []Point {
	m := NewModel(ds.D, ds.K, lambda)
	rng := rand.New(rand.NewSource(cfg.Seed))
	dk := ds.D * ds.K

	snap := m.Clone()
	g := snap.FullGradient(ds)
	prevSnap := snap
	prevG := g
	vel := make([]float64, dk)

	z := make([]float64, ds.K)
	gw := make([]float64, dk)
	gs := make([]float64, dk)

	var now float64
	switch cfg.Mode {
	case HostOnly:
		now += cfg.Timing.SummarizeHost
	default:
		now += cfg.Timing.SummarizeNDA
	}
	pts := []Point{{now, m.Loss(ds)}}

	for outer := 0; outer < cfg.Outers; outer++ {
		if cfg.Stop != nil && cfg.Stop(pts[len(pts)-1]) {
			break
		}
		epoch := cfg.Epoch
		useSnap, useG := snap, g
		if cfg.Mode == DelayedUpdate {
			epoch = int(cfg.Timing.SummarizeNDA/cfg.Timing.InnerIter) + 1
			useSnap, useG = prevSnap, prevG
		}
		for it := 0; it < epoch; it++ {
			i := rng.Intn(ds.N)
			m.sampleGradInto(ds, i, z, gw)
			useSnap.sampleGradInto(ds, i, z, gs)
			for j := 0; j < dk; j++ {
				grad := gw[j] - gs[j] + useG[j] + m.Lambda*(m.W[j]-useSnap.W[j])
				vel[j] = cfg.Momentum*vel[j] - cfg.LR*grad
				m.W[j] += vel[j]
			}
		}

		switch cfg.Mode {
		case HostOnly:
			now += float64(epoch)*cfg.Timing.InnerIter + cfg.Timing.SummarizeHost
			snap = m.Clone()
			g = snap.FullGradient(ds)
		case Accelerated:
			now += float64(epoch)*cfg.Timing.InnerIter + cfg.Timing.SummarizeNDA
			snap = m.Clone()
			g = snap.FullGradient(ds)
		case DelayedUpdate:
			now += cfg.Timing.SummarizeNDA + cfg.Timing.Exchange
			prevSnap, prevG = snap, snap.FullGradient(ds)
			snap = m.Clone()
			g = prevG
		}
		pts = append(pts, Point{now, m.Loss(ds)})
	}
	return pts
}
