package sim

import (
	"fmt"
	"math"
	"testing"

	"chopim/internal/ndart"
	"chopim/internal/sample"
)

// sampleSchedule is the test schedule for CI-coverage runs: enough
// windows to average out the per-window IPC fluctuation these short
// synthetic workloads show (32 windows puts the standard error of the
// mean well under 1% for every golden), while still fast-forwarding
// roughly half the ~100k-cycle span. Real sweeps use the default
// schedule (FF 20000), whose detailed fraction is far smaller; the
// tests trade speedup for tight estimates so the 3% bound is
// meaningful at test-sized budgets.
func sampleSchedule() SampleConfig {
	return SampleConfig{Windows: 32, Detail: 1000, Warmup: 600, FF: 1500, Prime: 2000}
}

// exactHostIPC measures host IPC on the exact path over precisely the
// span the sampled schedule estimates — warm scfg.Prime cycles, then
// measure to scfg.TotalCycles() — relaunching NDA work continuously as
// goldenStats does. Matching spans makes the comparison pure: the only
// difference between the two estimates is sampling plus fast-forward
// infidelity, not which phase of the (short, not fully steady) golden
// budget each one averaged over.
func exactHostIPC(t *testing.T, w ffWorkload, scfg SampleConfig) float64 {
	t.Helper()
	scfg = scfg.WithDefaults()
	s, err := New(w.cfg())
	if err != nil {
		t.Fatal(err)
	}
	var it func() (*ndart.Handle, error)
	if w.app != nil {
		if it, err = w.app(s); err != nil {
			t.Fatal(err)
		}
	}
	var h *ndart.Handle
	relaunch := func() {
		if it == nil {
			return
		}
		if h == nil || h.Done() {
			if h, err = it(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func(cycles int64) {
		relaunch()
		end := s.Now() + cycles
		for s.Now() < end {
			s.StepFast(end)
			relaunch()
		}
	}
	run(scfg.Prime)
	s.BeginMeasurement()
	run(scfg.TotalCycles() - scfg.Prime)
	return s.HostIPC()
}

// runSampled builds a fresh system for w and drives one sampled run,
// relaunching NDA work at window boundaries (the only quiescent points
// the sampled schedule exposes).
func runSampled(t *testing.T, w ffWorkload, scfg SampleConfig) (*System, *sample.Result) {
	t.Helper()
	s, err := New(w.cfg())
	if err != nil {
		t.Fatal(err)
	}
	var it func() (*ndart.Handle, error)
	if w.app != nil {
		if it, err = w.app(s); err != nil {
			t.Fatal(err)
		}
	}
	var h *ndart.Handle
	relaunch := func() error {
		if it == nil {
			return nil
		}
		if h == nil || h.Done() {
			var lerr error
			if h, lerr = it(); lerr != nil {
				return lerr
			}
		}
		return nil
	}
	if err := relaunch(); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunSampledFunc(scfg, func(int) error { return relaunch() })
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestSampledCICoverage is the validation centerpiece of sampled mode:
// for every golden workload, the exact host IPC must fall inside the
// sampled run's reported confidence interval, with a point-estimate
// relative error of at most 3%.
func TestSampledCICoverage(t *testing.T) {
	for _, w := range ffWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			exact := exactHostIPC(t, w, sampleSchedule())
			_, res := runSampled(t, w, sampleSchedule())
			m := res.HostIPC
			if exact == 0 {
				if m.Mean != 0 {
					t.Errorf("host-idle workload: sampled IPC %v, want 0", m.Mean)
				}
				return
			}
			if !m.Contains(exact) {
				t.Errorf("exact IPC %.6f outside sampled CI %.6f±%.6f", exact, m.Mean, m.CI)
			}
			if re := m.RelErr(exact); re > 0.03 {
				t.Errorf("relative error %.4f > 0.03 (exact %.6f, sampled %.6f)", re, exact, m.Mean)
			}
			t.Logf("exact %.6f  sampled %.6f±%.6f  relerr %.4f  (%d detailed / %d total cycles)",
				exact, m.Mean, m.CI, m.RelErr(exact), res.DetailCycles, res.TotalCycles)
		})
	}
}

// TestSampledWarmStateFidelity compares microarchitectural warm state —
// LLC occupancy, open DRAM banks, retired instructions — after an exact
// run of N cycles against a prime+fast-forward to the same cycle. The
// functional warm path is approximate by design (frozen in-flight
// misses, untrained prefetcher), so the check is a band, not equality:
// it catches a warm path that stops warming, not one that is off by an
// eviction or two.
func TestSampledWarmStateFidelity(t *testing.T) {
	const prime, ff = 2000, 10000
	for _, w := range ffWorkloads() {
		if w.app != nil {
			continue // host-driven warm state only
		}
		t.Run(w.name, func(t *testing.T) {
			exact, err := New(w.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := exact.RunFast(prime + ff); err != nil {
				t.Fatal(err)
			}

			ffd, err := New(w.cfg())
			if err != nil {
				t.Fatal(err)
			}
			st := newSampleState(ffd)
			st.beginSegment()
			if err := ffd.RunFast(prime); err != nil {
				t.Fatal(err)
			}
			st.updateRates()
			ffd.jumpFF(ff, st)

			if exact.Now() != ffd.Now() {
				t.Fatalf("clock mismatch: exact %d, ff %d", exact.Now(), ffd.Now())
			}
			within := func(what string, a, b, tol float64) {
				t.Helper()
				if a == 0 && b == 0 {
					return
				}
				if d := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)); d > tol {
					t.Errorf("%s diverged: exact %.0f, ff %.0f (rel %.2f > %.2f)", what, a, b, d, tol)
				}
			}
			within("LLC valid lines",
				float64(exact.Hier.LLC().ValidLines()), float64(ffd.Hier.LLC().ValidLines()), 0.30)
			within("open banks",
				float64(exact.Mem.OpenBanks()), float64(ffd.Mem.OpenBanks()), 0.50)
			var exRet, ffRet int64
			for i := range exact.Cores {
				exRet += exact.Cores[i].Retired
				ffRet += ffd.Cores[i].Retired
			}
			within("retired instructions", float64(exRet), float64(ffRet), 0.30)
			if ffd.Hier.LLC().ValidLines() == 0 {
				t.Error("fast-forward warmed no LLC lines at all")
			}
		})
	}
}

// TestRunSampledDeterminism pins the sampled path's determinism claim:
// a fixed-seed config yields byte-identical end states and results
// across repeated runs. Fast-forward consumes no randomness and
// detailed segments are bit-exact, so nothing may vary.
func TestRunSampledDeterminism(t *testing.T) {
	for _, w := range ffWorkloads() {
		if w.name != "mixed-mix1-dot" && w.name != "host-stall-heavy" && w.name != "mixed-mix3-copy-shared" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			run := func() string {
				s, res := runSampled(t, w, sampleSchedule())
				return snapshot(s) + "\n" + res.String()
			}
			if first, second := run(), run(); first != second {
				t.Errorf("repeated run diverged:\n first:  %s\n second: %s", first, second)
			}
		})
	}
}

// TestRunSampledRejectsVerifyFSM: the host-side replica FSM predicts
// NDA behavior from timing state the functional drain does not advance,
// so sampled mode must refuse such configs instead of tripping the
// replica panic mid-run.
func TestRunSampledRejectsVerifyFSM(t *testing.T) {
	cfg := Default(1)
	cfg.NDA.VerifyFSM = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSampled(SampleConfig{}); err == nil {
		t.Fatal("RunSampled accepted a VerifyFSM config")
	}
}

// TestSampledSpeedupShape sanity-checks the accounting the bench gate
// relies on: the default schedule fast-forwards the large majority of
// its span.
func TestSampledSpeedupShape(t *testing.T) {
	c := SampleConfig{}.WithDefaults()
	detail := c.DetailedCycles()
	if ratio := float64(c.TotalCycles()) / float64(detail); ratio < 10 {
		t.Errorf("default schedule covers only %.1fx its detailed cycles, want >= 10x", ratio)
	}
	_, res := runSampled(t, ffWorkload{name: "host", cfg: func() Config { return Default(0) }},
		SampleConfig{Windows: 2, Detail: 200, Warmup: 100, FF: 4000, Prime: 500})
	if got := res.TotalCycles; got != 500+2*(4000+100+200) {
		t.Errorf("TotalCycles = %d", got)
	}
	if got := res.DetailCycles; got != 500+2*300 {
		t.Errorf("DetailCycles = %d", got)
	}
	if got := res.FFCycles; got != 2*4000 {
		t.Errorf("FFCycles = %d", got)
	}
	if fmt.Sprintf("%v", res.HostIPC.PerWindow) == "" {
		t.Error("no per-window observations recorded")
	}
}
