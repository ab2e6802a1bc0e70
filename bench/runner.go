package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// expectJSON pins the deterministic output of every workload at the
// pinned seeds (regenerate with -pin after an intended model change).
//
//go:embed expect.json
var expectJSON []byte

// pinned is one workload's expected output at one seed.
type pinned struct {
	Counts  map[string]int64 `json:"counts,omitempty"`
	RowsSHA string           `json:"rows_sha256,omitempty"`
}

// expectations maps workload -> seed -> pinned output.
type expectations map[string]map[string]pinned

// lookup returns the pinned output for w at seed, if any. A workload
// whose inputs ignore the seed is looked up under seed 1.
func (e expectations) lookup(w *benchWorkload, seed int64) (pinned, bool) {
	if w.fixedSeed {
		seed = 1
	}
	p, ok := e[w.name][strconv.FormatInt(seed, 10)]
	return p, ok
}

// runner starts episodes as child processes of exe, one at a time.
type runner struct {
	exe      string
	env      []string      // added to the child environment
	deadline time.Duration // per-episode limit; the child is killed past it
	expect   expectations
}

// Episodes per run regardless of --seconds: enough for a median set-up
// time, and in a traced run for both sides of the overhead ratio.
const (
	minEpisodes       = 3
	minTracedEpisodes = 4
)

// runDeadline bounds a whole run, so it ends within 180 seconds even
// when an episode hangs.
const runDeadline = 170 * time.Second

// runResult collects one run's episodes.
type runResult struct {
	Attempted, Failed int
	Errors            []string
	Pinned            bool
	untraced, traced  []*episode
	first             *episode
}

// run repeats episodes of w until dur has passed (and at least the
// minimum count ran), alternating traced and untraced episodes when
// trace is set. It stops at the first failed episode.
func (r *runner) run(ctx context.Context, w *benchWorkload, seed int64, dur time.Duration, trace bool) *runResult {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res := &runResult{}
	want, pinnedOK := r.expect.lookup(w, seed)
	res.Pinned = pinnedOK
	need := minEpisodes
	if trace {
		need = minTracedEpisodes
	}
	start := time.Now()
	for i := 0; i < need || time.Since(start) < dur; i++ {
		traced := trace && i%2 == 1
		res.Attempted++
		ep, err := r.episode(ctx, w, seed, traced)
		if err == nil {
			err = res.check(ep, want, pinnedOK)
		}
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
			break
		}
		if traced {
			res.traced = append(res.traced, ep)
		} else {
			res.untraced = append(res.untraced, ep)
		}
	}
	return res
}

// check compares an episode with the run's first episode (one seed must
// always give the same simulated output) and with the pinned output.
func (res *runResult) check(ep *episode, want pinned, pinnedOK bool) error {
	if res.first == nil {
		res.first = ep
	} else if !maps.Equal(ep.Counts, res.first.Counts) || ep.RowsSHA != res.first.RowsSHA {
		return errors.New("two episodes of one seed produced different simulated output")
	}
	if !pinnedOK {
		return nil
	}
	if want.Counts != nil && !maps.Equal(ep.Counts, want.Counts) {
		return fmt.Errorf("simulated counts differ from bench/expect.json:\ngot  %v\nwant %v", ep.Counts, want.Counts)
	}
	if want.RowsSHA != "" && ep.RowsSHA != want.RowsSHA {
		return fmt.Errorf("Fig11 rows hash %s differs from bench/expect.json (%s)", ep.RowsSHA, want.RowsSHA)
	}
	return nil
}

// episode runs one child process and decodes its report.
func (r *runner) episode(ctx context.Context, w *benchWorkload, seed int64, traced bool) (*episode, error) {
	ctx, cancel := context.WithTimeout(ctx, r.deadline)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, r.exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Env = append(os.Environ(), r.env...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s episode killed at its deadline: %w", w.name, ctx.Err())
	}
	if err != nil {
		return nil, fmt.Errorf("%s episode: %w", w.name, err)
	}
	var ep episode
	if err := json.Unmarshal(lastLine(out.Bytes()), &ep); err != nil {
		return nil, fmt.Errorf("%s episode report: %w", w.name, err)
	}
	return &ep, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// endToEnd computes the user-visible metrics from the untraced episodes.
func (res *runResult) endToEnd() map[string]float64 {
	var chunks, setups, rss []float64
	for _, ep := range res.untraced {
		chunks = append(chunks, ep.Chunks...)
		rss = append(rss, float64(ep.MaxRSSKiB)/1024)
	}
	for _, ep := range res.all() {
		setups = append(setups, float64(ep.SetupNS)/1e9)
	}
	return map[string]float64{
		"ns_per_cycle": median(chunks),
		"setup_s":      median(setups),
		"peak_rss_mb":  median(rss),
	}
}

func (res *runResult) all() []*episode {
	return append(append([]*episode(nil), res.untraced...), res.traced...)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deriveCounts turns window counters into the count metrics: the
// per-layer metrics that are deterministic for a seed, so no speed-only
// change may move them. Counters a workload does not expose (fig11_sweep
// exposes only its rows) read 0.
func deriveCounts(c map[string]int64) map[string]float64 {
	f := func(k string) float64 { return float64(c[k]) }
	kcyc := f("dram_cycles") / 1000
	dramCols := f("dram_rd") + f("dram_wr") + f("dram_nda_rd") + f("dram_nda_wr")
	hostCols := f("mc_reads") + f("mc_writes")
	return map[string]float64{
		"cpu.ipc":                      ratio(f("retired"), f("cpu_cycles")),
		"cache.llc_mpki":               ratio(f("llc_misses"), f("retired")/1000),
		"cache.llc_miss_frac":          ratio(f("llc_misses"), f("llc_hits")+f("llc_misses")),
		"mc.reads_per_kcycle":          ratio(f("mc_reads"), kcyc),
		"mc.writes_per_kcycle":         ratio(f("mc_writes"), kcyc),
		"mc.read_lat_cycles":           ratio(f("mc_read_lat_sum"), f("mc_reads")),
		"mc.row_hit_frac":              ratio(hostCols-f("mc_acts"), hostCols),
		"dram.acts_per_kcycle":         ratio(f("dram_act"), kcyc),
		"dram.nda_col_frac":            ratio(f("dram_nda_rd")+f("dram_nda_wr"), dramCols),
		"nda.blocks_per_kcycle":        ratio(f("nda_blocks"), kcyc),
		"nda.stalls_host_per_kcycle":   ratio(f("nda_stalls_host"), kcyc),
		"nda.stalls_policy_per_kcycle": ratio(f("nda_stalls_policy"), kcyc),
		"ndart.relaunches":             f("relaunches"),
	}
}

// perLayer computes the per-layer metrics: the profile split from the
// traced episodes, the timed set-up and checkpoint calls, allocations
// from the untraced episodes, and the count metrics.
func (res *runResult) perLayer() map[string]float64 {
	m := deriveCounts(res.first.Counts)

	var samples, cpuNS, cycles int64
	byLayer := map[string]int64{}
	var traced []float64
	for _, ep := range res.traced {
		traced = append(traced, ep.Chunks...)
		cycles += ep.Cycles
		samples += ep.Split.Samples
		for l, ns := range ep.Split.CPUNS {
			byLayer[l] += ns
			cpuNS += ns
		}
	}
	for _, l := range layers {
		m[l+".self_frac"] = ratio(float64(byLayer[l]), float64(cpuNS))
	}
	m["trace.samples"] = float64(samples)
	m["trace.cpu_ns_per_cycle"] = ratio(float64(cpuNS), float64(cycles))
	var untraced []float64
	var mallocs, ucycles float64
	for _, ep := range res.untraced {
		untraced = append(untraced, ep.Chunks...)
		mallocs += float64(ep.Mallocs)
		ucycles += float64(ep.Cycles)
	}
	m["trace.overhead_frac"] = ratio(median(traced), median(untraced)) - 1
	m["heap.allocs_per_mcycle"] = ratio(mallocs, ucycles/1e6)

	var setup, build, place, warm, busy float64
	var snap, enc, rest, size []float64
	for _, ep := range res.all() {
		setup += float64(ep.SetupNS)
		build += float64(ep.BuildNS)
		place += float64(ep.PlaceNS)
		warm += float64(ep.WarmNS)
		busy += ep.BusyFrac
		if c := ep.Ckpt; c != nil {
			snap = append(snap, float64(c.SnapshotNS)/1e6)
			enc = append(enc, float64(c.EncodeNS)/1e6)
			rest = append(rest, float64(c.RestoreNS)/1e6)
			size = append(size, float64(c.Bytes))
		}
	}
	m["setup.build_frac"] = ratio(build, setup)
	m["setup.place_frac"] = ratio(place, setup)
	m["setup.warm_frac"] = ratio(warm, setup)
	m["experiments.busy_frac"] = busy / float64(len(res.all()))
	m["ckpt.snapshot_ms"] = median(snap)
	m["ckpt.encode_ms"] = median(enc)
	m["ckpt.restore_ms"] = median(rest)
	m["ckpt.bytes"] = median(size)
	return m
}
