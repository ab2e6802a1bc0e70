// Sharded experiment runner: every figure of the evaluation is a set of
// independent (mix x policy x configuration) simulation points, so the
// harness fans them across a bounded worker pool. Each point builds its
// own System whose RNGs are seeded from its configuration alone (no
// state is shared between systems), results are returned in enumeration
// order, and errors surface deterministically (the lowest-index failure
// wins) — so any worker count, including 1, yields byte-identical
// figure tables.
package experiments

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chopim/internal/sim"
)

// Parallelism resolves an Options.Parallel value: 0 means serial, any
// negative value means one worker per available CPU.
func (o Options) parallelism() int {
	p := o.Parallel
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// RunnerStats aggregates sharded-runner activity process-wide (cmd
// surfaces it after a sweep).
type RunnerStats struct {
	Jobs      int64         // simulation points executed
	Errors    int64         // points that returned an error
	BusyTime  time.Duration // summed per-point wall time across workers
	MaxShards int64         // largest worker pool used

	CacheHits      int64 // figures replayed from the result cache
	CacheMisses    int64 // figures looked up and not found (CacheDir set)
	Resumed        int64 // point entries replayed from the result cache
	HostOnlyReuses int64 // host-only points served from the outcome memo

	Panics   int64 // points that panicked (recovered and quarantined)
	Timeouts int64 // points that hit their deadline (Options.PointTimeout)
}

var (
	statJobs           atomic.Int64
	statErrs           atomic.Int64
	statBusy           atomic.Int64
	statShard          atomic.Int64
	statCacheHits      atomic.Int64
	statCacheMisses    atomic.Int64
	statResumed        atomic.Int64
	statHostOnlyReuses atomic.Int64
	statPanics         atomic.Int64
	statTimeouts       atomic.Int64
)

// ReadRunnerStats returns the aggregated runner statistics.
func ReadRunnerStats() RunnerStats {
	return RunnerStats{
		Jobs:      statJobs.Load(),
		Errors:    statErrs.Load(),
		BusyTime:  time.Duration(statBusy.Load()),
		MaxShards: statShard.Load(),

		CacheHits:      statCacheHits.Load(),
		CacheMisses:    statCacheMisses.Load(),
		Resumed:        statResumed.Load(),
		HostOnlyReuses: statHostOnlyReuses.Load(),

		Panics:   statPanics.Load(),
		Timeouts: statTimeouts.Load(),
	}
}

// Canceler drains a sweep cooperatively from a signal handler or peer
// goroutine: once CancelAdmission is called, the runner admits no new
// points while in-flight ones run to completion and are stored.
// Sticky and safe to call from any goroutine, any number of times.
type Canceler struct{ admit atomic.Bool }

// CancelAdmission stops the runner from admitting new points.
func (c *Canceler) CancelAdmission() { c.admit.Store(true) }

// AdmissionStopped reports whether new points may still start.
// Nil-safe: no canceler means admission never stops.
func (c *Canceler) AdmissionStopped() bool { return c != nil && c.admit.Load() }

// ErrSweepCanceled reports that admission stopped before every point
// ran. It always surfaces as the sweep's error — a drained sweep's
// partial results must never be cached as a complete figure.
var ErrSweepCanceled = errors.New("experiments: sweep canceled before all points ran")

// sharded runs n independent jobs with the worker count opt implies and
// returns the results in index order. Every point gets exactly one
// attempt under panic isolation (see runPoint). One admission loop
// serves every worker count: a point is admitted only once a worker
// slot is free, and admission stops at a cancel or, by default
// (fail-fast), at the first failure, which a point records before it
// releases its slot. One worker therefore runs the points in order and
// stops at the first failing one; more workers still drain the points
// already in flight, and the lowest-index error wins. Under
// Options.KeepGoing every point runs regardless of failures and the
// failed ones come back together as a *SweepError; quarantined points
// are never stored, so a rerun recomputes exactly them.
func sharded[T any](opt Options, n int, job func(i int) (T, error)) ([]T, error) {
	workers := opt.parallelism()
	if prev := statShard.Load(); int64(workers) > prev {
		statShard.CompareAndSwap(prev, int64(workers))
	}
	results := make([]T, n)
	// Point store (a figure run with CacheDir): replay the points a
	// previous run completed, store each point this run completes.
	// Replayed points skip simulation entirely; a figure's points are
	// independent, so the remaining ones compute exactly what they
	// would have.
	sw := opt.points.sweep(n)
	runOne := func(i int) error {
		if v, ok := loadPoint[T](sw, i); ok {
			results[i] = v
			statResumed.Add(1)
			return nil
		}
		v, err := runPoint(i, job)
		if err != nil {
			return err
		}
		results[i] = v
		storePoint(sw, i, v)
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var failed atomic.Bool
	admissionStopped := false
	for i := 0; i < n; i++ {
		// Admission is decided after the slot acquire: a point records
		// its failure before it releases its slot, so a failure or
		// cancel that lands while this point waits is seen here.
		sem <- struct{}{}
		admissionStopped = opt.Cancel.AdmissionStopped()
		if admissionStopped || !opt.KeepGoing && failed.Load() {
			break // in-flight points finish, no new ones start
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			if errs[i] = runOne(i); errs[i] != nil {
				failed.Store(true)
			}
		}(i)
	}
	wg.Wait()
	var fails []*PointError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !opt.KeepGoing {
			return nil, err
		}
		fails = append(fails, asPointError(i, err))
	}
	if admissionStopped {
		return results, ErrSweepCanceled
	}
	if len(fails) > 0 {
		return results, &SweepError{Total: n, Failures: fails}
	}
	return results, nil
}

// NDAOnlyRow is one point of the NDA-only throughput sweep.
type NDAOnlyRow struct {
	Op        string
	NDABlocks int64
	BWGBs     float64
}

// NDAOnlySweep measures NDA-only (no host cores) throughput for a set
// of Table I operations through the sharded runner, as one cached
// figure. The crash-resume test kills and reruns it.
func NDAOnlySweep(opt Options, ops []string) ([]NDAOnlyRow, error) {
	return figCached(opt, "ndaonly-"+strings.Join(ops, "+"),
		func(opt Options) ([]NDAOnlyRow, error) { return ndaOnlyRows(opt, ops) })
}

func ndaOnlyRows(opt Options, ops []string) ([]NDAOnlyRow, error) {
	perRank := 1 << 20
	if opt.Quick {
		perRank = 256 << 10
	}
	return sharded(opt, len(ops), func(i int) (NDAOnlyRow, error) {
		res, err := opt.measure(sim.Default(-1), ops[i], perRank)
		if err != nil {
			return NDAOnlyRow{}, err
		}
		return NDAOnlyRow{Op: ops[i], NDABlocks: res.NDABlocks, BWGBs: res.NDABWGBs}, nil
	})
}
