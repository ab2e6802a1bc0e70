// Command chopimbench is the repository benchmark: it measures the
// simulator's host time end to end on four workloads, splits a profiled
// run's CPU time across the simulator's layers, and checks every run's
// simulated output. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory explains them.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload mixed_copy --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -reps 5 -seed 1 -out results.json
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (names in BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "input seed (sim.Config.Seed)")
		seconds = flag.Int("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics of a profiled run; 0: the end-to-end metrics")
		reps    = flag.Int("reps", 0, "run every workload this many times and write -out")
		out     = flag.String("out", "", "results file written by -reps")
		compare = flag.Bool("compare", false, "compare two -reps results files: -compare A.json B.json")
		pin     = flag.Bool("pin", false, "rewrite bench/expect.json from seeds 1 and 2")
		child   = flag.Bool("child", false, "run one episode and print its report (internal)")
	)
	flag.Parse()
	err := func() error {
		if *child {
			return runChild(*name, *seed, *trace == 1)
		}
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			return err
		}
		if *seconds <= 0 {
			*seconds = spec.RunSeconds
		}
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("-compare takes two results files")
			}
			return runCompare(spec, flag.Arg(0), flag.Arg(1))
		case *reps > 0:
			if *out == "" {
				return errors.New("-reps needs -out")
			}
			return runSuite(spec, *reps, *seed, *seconds, *out, os.Stdout)
		case *pin:
			return runPin("bench/expect.json")
		case *name != "":
			return runOnce(spec, *name, *seed, *seconds, *trace == 1)
		}
		return errors.New("give --workload, -reps, -compare or -pin")
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chopimbench:", err)
		os.Exit(1)
	}
}

// benchSpec is BENCHMARK.json: the one list of workloads and metrics.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return e, nil
}

// episodeDeadline bounds one child episode; the longest takes seconds.
const episodeDeadline = 120 * time.Second

func newRunner() (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	exp, err := loadExpectations()
	if err != nil {
		return nil, err
	}
	return &runner{exe: exe, deadline: episodeDeadline, expect: exp}, nil
}

func runChild(name string, seed int64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	ep, err := runEpisode(w, seed, traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(ep)
}

// runOnce is one run as BENCHMARK.json's command makes it: measure for
// seconds, check the output, and print one JSON result line.
func runOnce(spec *benchSpec, name string, seed int64, seconds int, trace bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	r, err := newRunner()
	if err != nil {
		return err
	}
	res := r.run(context.Background(), w, seed, time.Duration(seconds)*time.Second, trace)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "chopimbench:", e)
	}
	if res.first == nil {
		return fmt.Errorf("%s: no episode completed", name)
	}
	if !res.Pinned {
		fmt.Fprintf(os.Stderr, "chopimbench: %s seed %d has no pinned output; checked for determinism and against the reference path only (unchecked)\n", name, seed)
	}
	decl, values := spec.EndToEnd, res.endToEnd()
	if trace {
		decl, values = spec.PerLayer, res.perLayer()
	}
	out := result{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, m := range decl {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which the benchmark does not compute", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func runCompare(spec *benchSpec, pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	if !compareSuites(os.Stdout, spec, a, b) {
		return errors.New("comparison found a regression, an unresolved metric or differing counts")
	}
	return nil
}

// runPin records each workload's simulated output at seeds 1 and 2.
func runPin(path string) error {
	r, err := newRunner()
	if err != nil {
		return err
	}
	exp := expectations{}
	for _, w := range workloads {
		exp[w.name] = map[string]pinned{}
		seeds := []int64{1, 2}
		if w.fixedSeed {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			ep, err := r.episode(context.Background(), w, seed, false)
			if err != nil {
				return err
			}
			exp[w.name][strconv.FormatInt(seed, 10)] = pinned{Counts: ep.Counts, RowsSHA: ep.RowsSHA}
		}
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
