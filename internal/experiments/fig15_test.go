package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"sync"
	"testing"

	"chopim/internal/svrg"
)

// TestSVRGOptimumMemoized checks that concurrent and repeated
// svrgOptimum calls on one scale run the optimization once and all
// return svrg.Optimum's float.
func TestSVRGOptimumMemoized(t *testing.T) {
	calls := 0 // written only inside the entry's once
	defer func(f func(*svrg.Dataset, float64, int64) float64) { computeOptimum = f }(computeOptimum)
	computeOptimum = func(ds *svrg.Dataset, lambda float64, seed int64) float64 {
		calls++
		return svrg.Optimum(ds, lambda, seed)
	}
	scale := SVRGScale{N: 64, D: 16, K: 2, Lambda: 1e-3}
	svrgOptima.Lock()
	delete(svrgOptima.m, scale) // an earlier run of this test memoized it
	svrgOptima.Unlock()
	ds := svrg.Synthetic(scale.N, scale.D, scale.K, fig15DataSeed)
	got := make([]float64, 5)
	var wg sync.WaitGroup
	for i := range got[:4] {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = svrgOptimum(ds, scale)
		}(i)
	}
	wg.Wait()
	got[4] = svrgOptimum(ds, scale)
	if calls != 1 {
		t.Errorf("%d calls ran the optimization %d times, want once", len(got), calls)
	}
	want := svrg.Optimum(ds, scale.Lambda, fig15OptimumSeed)
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("call %d returned %v, svrg.Optimum gives %v", i, v, want)
		}
	}
}

// TestFig15QuickPinned pins the quick Fig 15 numbers bit for bit: a
// SHA-256 over the float64 bits of the optimum and every 15a curve
// point (with the curve labels), and over every 15b row. Training and
// time stamping may be restructured only if these hashes hold; an
// intended change to Fig 15's numbers re-pins them.
func TestFig15QuickPinned(t *testing.T) {
	const (
		want15a = "e4b2577d967de1de92da40f12c8159cac05b71b84196d177a9d43a28cee18fae"
		want15b = "6a340bbbf4d820ff71cd57498d5c6057f72aac8a007da0277c1ee4cd4de8cf92"
	)
	opt := QuickOptions()
	curves, optimum, err := Fig15a(opt)
	if err != nil {
		t.Fatal("fig15a:", err)
	}
	h := sha256.New()
	put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	put(optimum)
	for _, c := range curves {
		io.WriteString(h, c.Label)
		binary.Write(h, binary.LittleEndian, int64(len(c.Points)))
		for _, p := range c.Points {
			put(p.Seconds)
			put(p.Loss)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want15a {
		t.Errorf("quick fig15a hash %s, pinned %s", got, want15a)
	}

	rows, err := Fig15b(opt)
	if err != nil {
		t.Fatal("fig15b:", err)
	}
	h.Reset()
	for _, r := range rows {
		binary.Write(h, binary.LittleEndian, int64(r.NDAs))
		put(r.SpeedupACCBest)
		put(r.SpeedupDelayed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want15b {
		t.Errorf("quick fig15b hash %s, pinned %s", got, want15b)
	}
}

// TestFig15bRowsUseOwnTiming gives each NDA count its own svrg.Timing
// and checks that each Fig 15b row is stamped with its own: the rows
// differ, and swapping the two counts' timings swaps the rows. At the
// quick scale the 2- and 4-rank calibrations are bit-identical, so
// TestFig15QuickPinned alone cannot see a row stamped with another
// count's timing.
func TestFig15bRowsUseOwnTiming(t *testing.T) {
	scale := quickSVRGScale()
	base := svrg.Timing{SummarizeNDA: 3.1e-4, SummarizeHost: 1.7e-3, InnerIter: 1.3e-6, Exchange: 2.9e-6}
	fast := base
	fast.SummarizeNDA, fast.Exchange = 1.6e-4, 1.9e-6
	rows := func(t4, t8 svrg.Timing) []Fig15bRow {
		t.Helper()
		own := map[int]svrg.Timing{4: t4, 8: t8}
		r, err := fig15bScaling(QuickOptions(), scale, 10, []int{4, 8}, base, func(ndas int) (svrg.Timing, error) {
			return own[ndas], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	got, swapped := rows(base, fast), rows(fast, base)
	if got[0].NDAs != 4 || got[1].NDAs != 8 {
		t.Fatalf("rows for %d and %d NDAs, want 4 and 8", got[0].NDAs, got[1].NDAs)
	}
	if got[0].SpeedupACCBest == got[1].SpeedupACCBest || got[0].SpeedupDelayed == got[1].SpeedupDelayed {
		t.Errorf("distinct timings gave equal speedups: %+v", got)
	}
	for i, j := range []int{1, 0} {
		if g, s := got[i], swapped[j]; g.SpeedupACCBest != s.SpeedupACCBest || g.SpeedupDelayed != s.SpeedupDelayed {
			t.Errorf("row %d under its timing %+v, the other count's row under the same timing %+v", i, g, s)
		}
	}
}
