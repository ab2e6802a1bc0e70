package main

import (
	"math"
	"testing"
)

// The quartiles must match Python's statistics.quantiles(v, n=4), which
// is what the benchmark's spreads are judged with.
func TestSummarizeMatchesPython(t *testing.T) {
	cases := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, 1.5, 4, 12},
		{[]float64{3}, 3, 3, 3},
	}
	for _, c := range cases {
		s := summarize(c.v)
		if math.Abs(s.Q1-c.q1) > 1e-12 || s.Median != c.m || math.Abs(s.Q3-c.q3) > 1e-12 {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.v, s, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "ns_per_cycle", Better: "lower", Bound: 0.07}
	higher := metricSpec{Name: "ipc", Better: "higher", Bound: 0.07}
	parent := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, parent, []float64{101, 100, 99, 102, 100}, verdictOK},
		{"within bound", lower, parent, []float64{105, 106, 104, 105, 106}, verdictOK},
		{"beyond bound", lower, parent, []float64{110, 111, 109, 110, 112}, verdictWorse},
		{"faster", lower, parent, []float64{80, 81, 79, 80, 82}, verdictOK},
		{"wide spread", lower, parent, []float64{70, 120, 95, 130, 100}, verdictUnresolved},
		{"wide spread, all better", lower, []float64{100, 130, 160, 190, 220}, []float64{50, 60, 70, 80, 90}, verdictOK},
		{"higher is better, dropped", higher, parent, []float64{90, 91, 89, 90, 92}, verdictWorse},
		{"higher is better, rose", higher, parent, []float64{110, 111, 109, 110, 112}, verdictOK},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
