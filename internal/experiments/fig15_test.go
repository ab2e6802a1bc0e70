package experiments

import (
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
