// SVRG collaboration (Section IV): train logistic regression where the
// host runs the tight inner loop and the NDAs summarize the full dataset
// into the variance-reduction correction term. Compares host-only,
// serialized accelerated, and the paper's delayed-update variant that
// overlaps both — reproducing Fig 15's trade-off on a scaled dataset.
package main

import (
	"fmt"
	"log"

	"chopim/internal/experiments"
	"chopim/internal/svrg"
)

func main() {
	scale := experiments.SVRGScale{N: 2048, D: 512, K: 10, Lambda: 1e-3}
	ds := svrg.Synthetic(scale.N, scale.D, scale.K, 7)
	opt := experiments.QuickOptions()

	// Phase times come from simulating the average-gradient kernel on
	// the 2x4 (8-NDA) machine and the host's measured stream bandwidth.
	timing, err := experiments.CalibrateTiming(scale, 4, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated on simulator: NDA summarize %.3f ms, host summarize %.3f ms, inner iter %.1f ns\n",
		1e3*timing.SummarizeNDA, 1e3*timing.SummarizeHost, 1e9*timing.InnerIter)

	optimum := svrg.Optimum(ds, scale.Lambda, 11)
	for _, m := range []struct {
		mode  svrg.Mode
		epoch int
		label string
	}{
		{svrg.HostOnly, scale.N, "host-only, epoch N"},
		{svrg.Accelerated, scale.N / 4, "NDA-accelerated, epoch N/4"},
		{svrg.DelayedUpdate, timing.DelayedEpoch(), "delayed update (parallel)"},
	} {
		losses := svrg.Train(ds, scale.Lambda, svrg.TrainConfig{
			Epoch: m.epoch, LR: 0.05, Momentum: 0.9, Outers: 12, Seed: 99,
			Delayed: m.mode == svrg.DelayedUpdate,
		})
		pts := svrg.Stamp(losses, m.mode, m.epoch, timing)
		last := pts[len(pts)-1]
		fmt.Printf("%-28s after %6.2f ms: loss gap %.3e\n",
			m.label, 1e3*last.Seconds, last.Loss-optimum)
	}
}
