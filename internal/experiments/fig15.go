package experiments

import (
	"fmt"
	"math"
	"sync"

	"chopim/internal/apps"
	"chopim/internal/sim"
	"chopim/internal/svrg"
	"chopim/internal/workload"
)

// SVRGScale sizes the Fig 15 study. The paper trains on CIFAR-10
// (50000x3072); the default here is a scaled synthetic dataset whose
// matrix still exceeds the LLC, preserving the bandwidth-bound character
// of summarization (see DESIGN.md).
type SVRGScale struct {
	N, D, K int
	Lambda  float64
}

// DefaultSVRGScale returns the scaled study configuration.
func DefaultSVRGScale() SVRGScale { return SVRGScale{N: 4096, D: 768, K: 10, Lambda: 1e-3} }

// quickSVRGScale shrinks the study for tests.
func quickSVRGScale() SVRGScale { return SVRGScale{N: 512, D: 128, K: 10, Lambda: 1e-3} }

// Fig 15's dataset and optimum seeds: both panels train on
// svrg.Synthetic(scale.N, scale.D, scale.K, fig15DataSeed) and measure
// loss against svrg.Optimum(ds, scale.Lambda, fig15OptimumSeed).
const (
	fig15DataSeed    = 7
	fig15OptimumSeed = 11
)

// svrgOptima memoizes svrgOptimum per process, keyed by the scale (the
// seeds are the constants above). Each entry's once makes a concurrent
// second caller wait for the first's result rather than recompute it.
var svrgOptima = struct {
	sync.Mutex
	m map[SVRGScale]*optimumEntry
}{m: make(map[SVRGScale]*optimumEntry)}

type optimumEntry struct {
	once sync.Once
	v    float64
}

// computeOptimum is the memoized computation (a variable so a test can
// count calls).
var computeOptimum = svrg.Optimum

// svrgOptimum returns svrg.Optimum(ds, scale.Lambda, fig15OptimumSeed)
// for ds built by svrg.Synthetic with fig15DataSeed, computing it once
// per process: the optimum is a pure function of the scale, and its
// long host-only run costs ~31 s of CPU at full budget.
func svrgOptimum(ds *svrg.Dataset, scale SVRGScale) float64 {
	svrgOptima.Lock()
	e := svrgOptima.m[scale]
	if e == nil {
		e = &optimumEntry{}
		svrgOptima.m[scale] = e
	}
	svrgOptima.Unlock()
	e.once.Do(func() { e.v = computeOptimum(ds, scale.Lambda, fig15OptimumSeed) })
	return e.v
}

// CalibrateTiming measures the SVRG phase times on the simulated machine
// for a system with the given ranks per channel.
func CalibrateTiming(scale SVRGScale, ranksPerChannel int, opt Options) (svrg.Timing, error) {
	var t svrg.Timing

	// NDA summarization: run the Fig 8 kernel once, no host interference
	// (the ACC host blocks during summarization; the delayed-update host
	// traffic is cache-resident).
	cfg := sim.Default(-1)
	cfg.Geom = geomWithRanks(ranksPerChannel)
	s, err := opt.newSystem(cfg)
	if err != nil {
		return t, err
	}
	ag, err := apps.NewAverageGradient(s.RT, apps.AverageGradientConfig{N: scale.N, D: scale.D})
	if err != nil {
		return t, err
	}
	start := s.Now()
	h, err := ag.Run()
	if err != nil {
		return t, err
	}
	if err := s.Await(2_000_000_000, h); err != nil {
		return t, err
	}
	t.SummarizeNDA = sim.Seconds(s.Now() - start)

	// Host summarization: the host streams X twice (GEMV pass plus the
	// per-row AXPY pass) at one core's share of the streaming mix's
	// measured bandwidth, and additionally pays the gradient arithmetic
	// at the core's FMA rate.
	bw, err := hostStreamBandwidth(opt)
	if err != nil {
		return t, err
	}
	xBytes := float64(scale.N) * float64(scale.D) * 4
	flops := 3 * float64(scale.N) * float64(scale.D) * float64(scale.K)
	const hostFlops = 32e9 // 4 GHz x 8-wide FMA pipeline
	t.SummarizeHost = 2*xBytes/bw + flops/hostFlops

	// Inner iteration: one sampled row streamed plus 3*D*K MACs.
	rowBytes := float64(scale.D) * 4
	t.InnerIter = rowBytes/bw + 3*float64(scale.D)*float64(scale.K)/hostFlops

	// Exchange: s and g (D*K floats each) copied twice with a fence.
	wBytes := float64(scale.D) * float64(scale.K) * 4
	t.Exchange = 4*wBytes/bw + 2e-6
	return t, nil
}

// hostStreamBandwidth measures one core's share (bytes/s) of the host
// read bandwidth the lbm-led streaming mix achieves running alone on
// the baseline system.
func hostStreamBandwidth(opt Options) (float64, error) {
	const mix = 3 // lbm-led streaming mix
	out, err := opt.hostOnly(sim.Default(mix))
	if err != nil {
		return 0, err
	}
	if out.HostBWGBs <= 0 {
		return 0, fmt.Errorf("fig15: calibration produced zero bandwidth")
	}
	return out.HostBWGBs * 1e9 / float64(len(workload.Mixes[mix])), nil
}

// Fig15aCurve is one convergence trajectory.
type Fig15aCurve struct {
	Label  string
	Points []svrg.Point
}

// fig15aResult bundles the figure's two outputs so they cache as one
// entry.
type fig15aResult struct {
	Curves  []Fig15aCurve
	Optimum float64
}

// Fig15a reproduces Figure 15a: training-loss-minus-optimum versus time
// for host-only and accelerated SVRG at epoch lengths N, N/2, N/4, plus
// delayed-update SVRG, with 8 NDAs (2x4).
func Fig15a(opt Options) ([]Fig15aCurve, float64, error) {
	r, err := figCached(opt, "fig15a", fig15aRun)
	if err != nil {
		return nil, 0, err
	}
	return r.Curves, r.Optimum, nil
}

func fig15aRun(opt Options) (fig15aResult, error) {
	scale := DefaultSVRGScale()
	outers := 30
	if opt.Quick {
		scale = quickSVRGScale()
		outers = 8
	}
	ds := svrg.Synthetic(scale.N, scale.D, scale.K, fig15DataSeed)
	timing, err := CalibrateTiming(scale, 4, opt)
	if err != nil {
		return fig15aResult{}, err
	}
	opt15 := svrgOptimum(ds, scale)

	// Host-only and accelerated training differ only in time stamps, so
	// each epoch trains once and is stamped in both modes. The last
	// point trains delayed update.
	epochs := []int{scale.N, scale.N / 2, scale.N / 4, timing.DelayedEpoch()}
	du := len(epochs) - 1
	losses, err := sharded(opt, len(epochs), func(i int) ([]float64, error) {
		return svrg.Train(ds, scale.Lambda, svrg.TrainConfig{
			Epoch: epochs[i], LR: 0.05, Momentum: 0.9, Outers: outers, Seed: 99, Delayed: i == du,
		}), nil
	})
	if err != nil {
		return fig15aResult{}, err
	}
	var curves []Fig15aCurve
	for _, m := range []struct {
		mode   svrg.Mode
		prefix string
	}{{svrg.HostOnly, "HO"}, {svrg.Accelerated, "ACC"}} {
		for i, e := range []string{"N", "N/2", "N/4"} {
			label := fmt.Sprintf("%s, Epoch (%s)", m.prefix, e)
			curves = append(curves, Fig15aCurve{label, svrg.Stamp(losses[i], m.mode, epochs[i], timing)})
		}
	}
	curves = append(curves, Fig15aCurve{"DelayedUpdate", svrg.Stamp(losses[du], svrg.DelayedUpdate, 0, timing)})
	return fig15aResult{Curves: curves, Optimum: opt15}, nil
}

// Fig15bRow is one NDA-count scaling result.
type Fig15bRow struct {
	NDAs           int
	SpeedupACCBest float64
	SpeedupDelayed float64
}

// Fig15b reproduces Figure 15b: time-to-convergence speedup over
// host-only for the best serialized accelerated configuration and for
// delayed-update SVRG at 4, 8, and 16 NDAs.
func Fig15b(opt Options) ([]Fig15bRow, error) { return figCached(opt, "fig15b", fig15bRows) }

func fig15bRows(opt Options) ([]Fig15bRow, error) {
	scale := DefaultSVRGScale()
	outers := 40
	ndaCounts := []int{4, 8, 16}
	if opt.Quick {
		scale = quickSVRGScale()
		outers = 10
		ndaCounts = []int{4, 8}
	}
	// timing0 is the 2-rank calibration; other rank counts measure their own.
	timing0, err := CalibrateTiming(scale, 2, opt)
	if err != nil {
		return nil, err
	}
	calibrate := func(ndas int) (svrg.Timing, error) {
		if ndas/2 == 2 {
			return timing0, nil
		}
		return CalibrateTiming(scale, ndas/2, opt)
	}
	return fig15bScaling(opt, scale, outers, ndaCounts, timing0, calibrate)
}

// fig15bScaling computes Fig 15b's rows once the timings are known:
// timing0 stamps the host-only reference, and each NDA count's row
// stamps its runs with calibrate(ndas).
func fig15bScaling(opt Options, scale SVRGScale, outers int, ndaCounts []int, timing0 svrg.Timing,
	calibrate func(ndas int) (svrg.Timing, error)) ([]Fig15bRow, error) {
	ds := svrg.Synthetic(scale.N, scale.D, scale.K, fig15DataSeed)

	// The optimum and the host-only reference runs are independent, so
	// they share one sharded call: shard 0, the longest, is the optimum,
	// and shard i>0 trains epochs[i-1]. The convergence threshold is
	// adaptive: 1.5x the best final loss gap any host-only run achieves,
	// so every configuration's time-to-reach is well defined at any
	// study scale (the paper uses a fixed 1e-13 on its much longer runs).
	epochs := []int{scale.N, scale.N / 2, scale.N / 4}
	ref, err := sharded(opt, 1+len(epochs), func(i int) ([]float64, error) {
		if i == 0 {
			return []float64{svrgOptimum(ds, scale)}, nil
		}
		return svrg.Train(ds, scale.Lambda, svrg.TrainConfig{
			Epoch: epochs[i-1], LR: 0.05, Momentum: 0.9, Outers: outers, Seed: 99,
		}), nil
	})
	if err != nil {
		return nil, err
	}
	optimum, hoLosses := ref[0][0], ref[1:]
	bestFinalGap := math.Inf(1)
	for _, l := range hoLosses {
		if gap := l[len(l)-1] - optimum; gap < bestFinalGap {
			bestFinalGap = gap
		}
	}
	eps := 1.5 * bestFinalGap
	if eps <= 0 {
		eps = 1e-12
	}
	// bestTime is the earliest time any of the reference losses, stamped
	// in mode under t, reaches eps.
	bestTime := func(mode svrg.Mode, t svrg.Timing) float64 {
		best := math.Inf(1)
		for i, e := range epochs {
			if tt, ok := svrg.TimeToReach(svrg.Stamp(hoLosses[i], mode, e, t), optimum, eps); ok && tt < best {
				best = tt
			}
		}
		return best
	}
	hoBest := bestTime(svrg.HostOnly, timing0)
	if math.IsInf(hoBest, 1) {
		return nil, fmt.Errorf("fig15b: host-only runs never reached adaptive eps=%g", eps)
	}

	// Each NDA count's row needs its own calibration, then delayed
	// update at two learning rates. The calibrations are independent,
	// and so are the trainings once calibrated, so each phase is one
	// sharded call with one (count, rate) training per shard.
	timings, err := sharded(opt, len(ndaCounts), func(i int) (svrg.Timing, error) {
		return calibrate(ndaCounts[i])
	})
	if err != nil {
		return nil, err
	}
	// The delayed-update runs are read only up to their first point
	// under eps, so they stop there. More NDAs run more (shorter) outer
	// iterations, each with a full gradient, so the largest count takes
	// longest: shards run the counts in reverse.
	lrs := []float64{0.03, 0.05}
	countOf := func(shard int) int { return len(ndaCounts) - 1 - shard/len(lrs) }
	reached := func(loss float64) bool { return svrg.Reached(loss, optimum, eps) }
	delayed, err := sharded(opt, len(ndaCounts)*len(lrs), func(i int) (fig15bReach, error) {
		timing := timings[countOf(i)]
		// Delayed update's outer iterations are short (summarize +
		// exchange only); give it enough to span the host-only
		// reference wall-clock so time-to-reach is comparable.
		duOuters := int(hoBest/(timing.SummarizeNDA+timing.Exchange)) + 1
		if duOuters > 50*outers {
			duOuters = 50 * outers
		}
		if duOuters < outers {
			duOuters = outers
		}
		losses := svrg.Train(ds, scale.Lambda, svrg.TrainConfig{
			Epoch: timing.DelayedEpoch(), LR: lrs[i%len(lrs)], Momentum: 0.9,
			Outers: duOuters, Seed: 99, Delayed: true, Stop: reached,
		})
		tt, ok := svrg.TimeToReach(svrg.Stamp(losses, svrg.DelayedUpdate, 0, timing), optimum, eps)
		return fig15bReach{Seconds: tt, Reached: ok}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig15bRow, len(ndaCounts))
	for c, ndas := range ndaCounts {
		// Accelerated training is the host-only reference's: only the
		// stamps differ.
		row := Fig15bRow{NDAs: ndas}
		if acc := bestTime(svrg.Accelerated, timings[c]); !math.IsInf(acc, 1) {
			row.SpeedupACCBest = hoBest / acc
		}
		best := math.Inf(1)
		for _, r := range delayed[(len(ndaCounts)-1-c)*len(lrs):][:len(lrs)] {
			if r.Reached && r.Seconds < best {
				best = r.Seconds
			}
		}
		if !math.IsInf(best, 1) {
			row.SpeedupDelayed = hoBest / best
		}
		rows[c] = row
	}
	return rows, nil
}

// fig15bReach is one delayed-update training's time to reach eps.
type fig15bReach struct {
	Seconds float64
	Reached bool
}
