package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suiteFile is what -reps writes and -compare reads.
type suiteFile struct {
	Env       suiteEnv                  `json:"env"`
	Seed      int64                     `json:"seed"`
	Reps      int                       `json:"reps"`
	Seconds   int                       `json:"seconds"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteEnv struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Rev        string `json:"rev"`
	Date       string `json:"date"`
}

type suiteWorkload struct {
	Check      string                 `json:"check"` // "pinned" or "unchecked"
	Runs       int                    `json:"runs"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	EndToEnd   map[string]*series     `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer"`
	Errors     []string               `json:"errors,omitempty"`
}

// series is one end-to-end metric over the untraced runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	summary
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// suiteRunDeadline kills a run that outlives the 180 seconds one may take.
const suiteRunDeadline = 180 * time.Second

// runSuite runs every workload reps times, each run a fresh child process
// and one at a time, rotating the workload order each rep; then one
// traced run per workload. It prints every metric and writes the results.
func runSuite(spec *benchSpec, reps int, seed int64, seconds int, outPath string, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sf := &suiteFile{Env: environment(), Seed: seed, Reps: reps, Seconds: seconds, Workloads: map[string]*suiteWorkload{}}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	for _, ws := range spec.Workloads {
		wl, err := findWorkload(ws.Name)
		if err != nil {
			return err
		}
		sw := &suiteWorkload{Check: "unchecked", EndToEnd: map[string]*series{}}
		if _, ok := exp.lookup(wl, seed); ok {
			sw.Check = "pinned"
		}
		for _, m := range spec.EndToEnd {
			sw.EndToEnd[m.Name] = &series{Unit: m.Unit}
		}
		sf.Workloads[ws.Name] = sw
	}
	n := len(spec.Workloads)
	run := func(name string, trace bool) *result {
		sw := sf.Workloads[name]
		sw.Runs++
		res, err := runInChild(exe, name, seed, seconds, trace)
		if err == nil && !res.Correct {
			err = fmt.Errorf("%d of %d episodes failed", res.Failed, res.Attempted)
		}
		if err != nil {
			sw.Failed++
			sw.Errors = append(sw.Errors, err.Error())
			return nil
		}
		return res
	}
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < n; i++ {
			name := spec.Workloads[(i+rep)%n].Name
			fmt.Fprintf(os.Stderr, "rep %d/%d: %s\n", rep+1, reps, name)
			if res := run(name, false); res != nil {
				for _, m := range spec.EndToEnd {
					s := sf.Workloads[name].EndToEnd[m.Name]
					s.Values = append(s.Values, res.Metrics[m.Name].Value)
				}
			}
		}
	}
	for _, ws := range spec.Workloads {
		fmt.Fprintf(os.Stderr, "traced: %s\n", ws.Name)
		if res := run(ws.Name, true); res != nil {
			sf.Workloads[ws.Name].PerLayer = res.Metrics
		}
	}
	for _, sw := range sf.Workloads {
		sw.FailedFrac = ratio(float64(sw.Failed), float64(sw.Runs))
		for _, s := range sw.EndToEnd {
			s.summary = summarize(s.Values)
		}
	}
	printSuite(w, spec, sf)
	b, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(b, '\n'), 0o644)
}

// runInChild runs the benchmark once, as BENCHMARK.json's command does,
// in a child process and parses the
// result line.
func runInChild(exe, name string, seed int64, seconds int, trace bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), suiteRunDeadline)
	defer cancel()
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s run killed at its deadline: %w", name, ctx.Err())
	}
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s result: %w", name, err)
	}
	return &res, nil
}

func printSuite(w io.Writer, spec *benchSpec, sf *suiteFile) {
	fmt.Fprintf(w, "nproc %d, GOMAXPROCS %d, %s, %s, rev %s; seed %d, %d reps of %d s\n",
		sf.Env.Nproc, sf.Env.GOMAXPROCS, sf.Env.Go, sf.Env.CPU, sf.Env.Rev, sf.Seed, sf.Reps, sf.Seconds)
	for _, ws := range spec.Workloads {
		sw := sf.Workloads[ws.Name]
		fmt.Fprintf(w, "\n%s (%s): %d runs, failed_frac %.3g\n", ws.Name, sw.Check, sw.Runs, sw.FailedFrac)
		for _, m := range spec.EndToEnd {
			s := sw.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-32s %12.6g %-8s [%.6g, %.6g] n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, len(s.Values))
		}
		for _, m := range spec.PerLayer {
			if v, ok := sw.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-32s %12.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
		for _, e := range sw.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
	}
}

// environment records what later comparisons need to size a gain.
func environment() suiteEnv {
	env := suiteEnv{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Rev:        "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		env.Rev = strings.TrimSpace(string(b))
	}
	return env
}
