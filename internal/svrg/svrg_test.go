package svrg

import (
	"math"
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
	pts := Run(ds, 1e-3, RunConfig{
		Mode: HostOnly, Epoch: ds.N, LR: 0.05, Momentum: 0.9, Outers: 10, Seed: 3,
		Timing: Timing{SummarizeHost: 1e-3, InnerIter: 1e-6},
	})
	final := pts[len(pts)-1].Loss
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
	ho := Run(ds, 1e-3, RunConfig{Mode: HostOnly, Epoch: 100, LR: 0.05, Outers: 3, Seed: 1, Timing: tm})
	acc := Run(ds, 1e-3, RunConfig{Mode: Accelerated, Epoch: 100, LR: 0.05, Outers: 3, Seed: 1, Timing: tm})
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
	du := Run(ds, 1e-3, RunConfig{Mode: DelayedUpdate, LR: 0.05, Outers: 4, Seed: 1, Timing: tm})
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

// TestRunStopsAtFirstReachedPoint: a run with a stop rule is the full
// run's prefix up to the first point the rule accepts, for both the
// serialized and the delayed-update loop.
func TestRunStopsAtFirstReachedPoint(t *testing.T) {
	ds := smallDataset()
	for _, mode := range []Mode{Accelerated, DelayedUpdate} {
		cfg := RunConfig{
			Mode: mode, Epoch: ds.N, LR: 0.05, Momentum: 0.9, Outers: 10, Seed: 3,
			Timing: Timing{SummarizeNDA: 1e-3, InnerIter: 1e-5, Exchange: 1e-6},
		}
		full := Run(ds, 1e-3, cfg)
		// A threshold the run first meets midway.
		eps := full[len(full)/2].Loss
		first := -1
		for i, p := range full {
			if Reached(p, 0, eps) {
				first = i
				break
			}
		}
		if first <= 0 || first == len(full)-1 {
			t.Fatalf("%v: eps %v first reached at point %d of %d; want an interior point", mode, eps, first, len(full))
		}
		cfg.Stop = func(p Point) bool { return Reached(p, 0, eps) }
		got := Run(ds, 1e-3, cfg)
		if len(got) != first+1 {
			t.Fatalf("%v: stopped run has %d points, want %d", mode, len(got), first+1)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("%v: point %d = %+v, full run's %+v", mode, i, got[i], full[i])
			}
		}
	}
}

func TestOptimumBelowTrainedLoss(t *testing.T) {
	ds := smallDataset()
	opt := Optimum(ds, 1e-3, 2)
	pts := Run(ds, 1e-3, RunConfig{
		Mode: HostOnly, Epoch: ds.N, LR: 0.05, Momentum: 0.9, Outers: 5, Seed: 3,
		Timing: Timing{SummarizeHost: 1, InnerIter: 1e-6},
	})
	if opt > pts[len(pts)-1].Loss+1e-9 {
		t.Errorf("optimum %.6f above a short run's loss %.6f", opt, pts[len(pts)-1].Loss)
	}
}

func TestModeStrings(t *testing.T) {
	if HostOnly.String() != "HO" || Accelerated.String() != "ACC" || DelayedUpdate.String() != "DelayedUpdate" {
		t.Error("mode strings wrong")
	}
}
