package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// median returns the median of v (0 for none), as Python's
// statistics.median does.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is a metric's median and quartiles over runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(v, n=4) does (its default "exclusive" method), so
// spreads read the same here as in any script that checks them.
func summarize(v []float64) summary {
	s := slices.Clone(v)
	slices.Sort(s)
	out := summary{Median: median(s)}
	n := len(s)
	if n < 2 {
		out.Q1, out.Q3 = out.Median, out.Median
		return out
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// Verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares the runs of a parent (a) and a change (b) on one
// metric. The change is worse when its median is worse than the parent's
// by more than bound; when either side's spread is wider than bound the
// comparison is unresolved, unless every run of the change reads better
// than every run of the parent.
func verdict(m metricSpec, a, b []float64) string {
	sa, sb := summarize(a), summarize(b)
	lower := m.Better == "lower"
	if sa.spread() > m.Bound || sb.spread() > m.Bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if !lower {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return verdictOK
		}
		return verdictUnresolved
	}
	worse := sb.Median > sa.Median*(1+m.Bound)
	if !lower {
		worse = sb.Median < sa.Median*(1-m.Bound)
	}
	if worse {
		return verdictWorse
	}
	return verdictOK
}

// compareSuites prints, for each workload and end-to-end metric, both
// sides' medians and quartiles, their ratio, the bound and a verdict, and
// checks that the deterministic counts match. It reports whether every
// verdict is ok and every count identical.
func compareSuites(w io.Writer, spec *benchSpec, a, b *suiteFile) bool {
	allOK := true
	fmt.Fprintf(w, "%-13s %-13s %26s %26s %7s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "verdict")
	for _, ws := range spec.Workloads {
		wa, wb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-13s missing from one side\n", ws.Name)
			allOK = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if va == nil || vb == nil || len(va.Values) == 0 || len(vb.Values) == 0 {
				fmt.Fprintf(w, "%-13s %-13s missing from one side\n", ws.Name, m.Name)
				allOK = false
				continue
			}
			v := verdict(m, va.Values, vb.Values)
			allOK = allOK && v == verdictOK
			sa, sb := summarize(va.Values), summarize(vb.Values)
			fmt.Fprintf(w, "%-13s %-13s %26s %26s %7.4f %6.2f  %s\n", ws.Name, m.Name,
				fmtSummary(sa), fmtSummary(sb), ratio(sb.Median, sa.Median), m.Bound, v)
		}
		var differ []string
		for name := range deriveCounts(nil) {
			va, oka := wa.PerLayer[name]
			vb, okb := wb.PerLayer[name]
			if !oka || !okb || va.Value != vb.Value {
				differ = append(differ, name)
			}
		}
		slices.Sort(differ)
		if len(differ) > 0 {
			fmt.Fprintf(w, "%-13s deterministic counts differ: %v\n", ws.Name, differ)
			allOK = false
		} else {
			fmt.Fprintf(w, "%-13s deterministic counts identical\n", ws.Name)
		}
	}
	return allOK
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
