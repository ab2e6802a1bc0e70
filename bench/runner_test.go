package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// fakeEnv makes the test binary stand in for an episode child: "ok"
// prints fakeEpisode, "error" exits non-zero, "hang" never finishes.
const fakeEnv = "CHOPIMBENCH_FAKE_EPISODE"

func TestMain(m *testing.M) {
	switch os.Getenv(fakeEnv) {
	case "ok":
		json.NewEncoder(os.Stdout).Encode(fakeEpisode())
		os.Exit(0)
	case "error":
		fmt.Fprintln(os.Stderr, "fake episode: simulator returned an error")
		os.Exit(3)
	case "hang":
		time.Sleep(time.Minute)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func fakeCounts() map[string]int64 {
	return map[string]int64{"dram_cycles": 1000, "cpu_cycles": 3333, "retired": 2000, "mc_reads": 100}
}

func fakeEpisode() *episode {
	return &episode{
		SetupNS: 4e8, BuildNS: 1e6, PlaceNS: 3e7, WarmNS: 3.7e8,
		Cycles: 1000, Chunks: []float64{1500, 1600, 1550}, Mallocs: 10,
		Counts: fakeCounts(),
		Ckpt:   &ckptTimes{SnapshotNS: 2e6, EncodeNS: 1e7, RestoreNS: 3e7, Bytes: 1 << 20},
		Split:  &layerSplit{Samples: 10, CPUNS: map[string]int64{"mc": 6e7, "dram": 4e7}},
	}
}

func fakeRunner(mode string, deadline time.Duration, exp expectations) *runner {
	return &runner{exe: os.Args[0], env: []string{fakeEnv + "=" + mode}, deadline: deadline, expect: exp}
}

// Each way an episode can go wrong must count as a failed attempt.
func TestRunCountsFailures(t *testing.T) {
	w, err := findWorkload("mixed_copy")
	if err != nil {
		t.Fatal(err)
	}
	perturbed := fakeCounts()
	perturbed["mc_reads"]++
	cases := []struct {
		name, mode string
		deadline   time.Duration
		exp        expectations
		failed     int
		errPart    string
	}{
		{"matching expectation", "ok", time.Minute, expectations{"mixed_copy": {"1": {Counts: fakeCounts()}}}, 0, ""},
		{"perturbed expectation", "ok", time.Minute, expectations{"mixed_copy": {"1": {Counts: perturbed}}}, 1, "differ from bench/expect.json"},
		{"erroring run", "error", time.Minute, nil, 1, "exit status 3"},
		{"killed at deadline", "hang", 300 * time.Millisecond, nil, 1, "deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := fakeRunner(c.mode, c.deadline, c.exp).run(context.Background(), w, 1, 0, false)
			if res.Failed != c.failed {
				t.Fatalf("failed = %d, want %d (errors %v)", res.Failed, c.failed, res.Errors)
			}
			if c.failed == 0 {
				if res.Attempted != minEpisodes || !res.Pinned {
					t.Errorf("attempted %d pinned %v, want %d pinned", res.Attempted, res.Pinned, minEpisodes)
				}
				return
			}
			if res.Attempted != 1 || !strings.Contains(res.Errors[0], c.errPart) {
				t.Errorf("attempted %d, errors %v; want 1 attempt failing with %q", res.Attempted, res.Errors, c.errPart)
			}
		})
	}
}

// BENCHMARK.json is the list of workloads and metrics: the benchmark must
// implement exactly its workloads and compute every metric it declares.
func TestSpecMatchesImplementation(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ws := range spec.Workloads {
		names = append(names, ws.Name)
	}
	var impl []string
	for _, w := range workloads {
		impl = append(impl, w.name)
	}
	if strings.Join(names, ",") != strings.Join(impl, ",") {
		t.Errorf("BENCHMARK.json workloads %v, implemented %v", names, impl)
	}
	res := &runResult{untraced: []*episode{fakeEpisode()}, traced: []*episode{fakeEpisode()}, first: fakeEpisode()}
	for _, c := range []struct {
		decl []metricSpec
		got  map[string]float64
	}{{spec.EndToEnd, res.endToEnd()}, {spec.PerLayer, res.perLayer()}} {
		declared := map[string]bool{}
		for _, m := range c.decl {
			declared[m.Name] = true
			if _, ok := c.got[m.Name]; !ok {
				t.Errorf("BENCHMARK.json declares %s, which is not computed", m.Name)
			}
		}
		for name := range c.got {
			if !declared[name] {
				t.Errorf("%s is computed but not declared in BENCHMARK.json", name)
			}
		}
	}
}
