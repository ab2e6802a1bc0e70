// Per-point fault isolation for the sharded runner: a panicking point —
// any of the simulator's internal impossible-state panics, an armed
// invariant checker, or an injected fault — is recovered into a
// PointError and quarantined instead of killing the process, and
// deadline expiries are counted separately. Every point gets exactly
// one attempt: simulation, placement and config errors are
// deterministic, and journal and cache I/O errors degrade to recompute
// without failing the point, so no failure a point returns would pass
// on a second try. Under Options.KeepGoing a sweep completes every
// healthy point and reports the failures together as a SweepError; the
// default remains fail-fast on the lowest-index error.
package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"chopim/internal/faults"
	"chopim/internal/sim"
)

// PointError describes one failed sweep point. Panic carries the
// recovered value (with Stack) when the point crashed rather than
// returning an error.
type PointError struct {
	Index int
	Err   error  // underlying error; nil when the point panicked
	Panic any    // recovered panic value; nil for plain errors
	Stack []byte // goroutine stack at recovery (panics only)
}

func (e *PointError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("point %d: quarantined after panic: %v\n%s", e.Index, e.Panic, e.Stack)
	}
	return fmt.Sprintf("point %d: %v", e.Index, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// SweepError aggregates every failed point of a KeepGoing sweep. The
// healthy points' results are complete and valid alongside it.
type SweepError struct {
	Total    int
	Failures []*PointError // ascending by index
}

func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d of %d points failed (failures quarantined; healthy points completed)",
		len(e.Failures), e.Total)
	for _, f := range e.Failures {
		b.WriteString("\n  ")
		b.WriteString(f.Error())
	}
	return b.String()
}

func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// asPointError wraps a plain point failure with its index, passing an
// existing PointError through.
func asPointError(i int, err error) *PointError {
	var pe *PointError
	if errors.As(err, &pe) {
		return pe
	}
	return &PointError{Index: i, Err: err}
}

// guardedJob runs one point attempt with panic isolation: a panic
// anywhere below — simulator internals, an armed invariant checker, an
// injected fault — comes back as a PointError carrying the stack. The
// runner's fault-injection site lives here too, inside the recovery
// scope, so injected panics exercise the same path real ones take.
func guardedJob[T any](i int, job func(int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PointError{Index: i, Panic: r, Stack: debug.Stack()}
		}
	}()
	if faults.Active() {
		faults.Adjust(faults.RunnerPoint, int64(i)) // an armed panic hook fires here
	}
	return job(i)
}

// runPoint executes one sweep point's single attempt with isolation,
// timing and classification: panics quarantine and deadline expiries
// count as timeouts.
func runPoint[T any](i int, job func(int) (T, error)) (T, error) {
	start := time.Now()
	v, err := guardedJob(i, job)
	statBusy.Add(int64(time.Since(start)))
	statJobs.Add(1)
	if err == nil {
		return v, nil
	}
	statErrs.Add(1)
	var pe *PointError
	var de *sim.DeadlineError
	switch {
	case errors.As(err, &pe) && pe.Panic != nil:
		statPanics.Add(1)
		statQuarantined.Add(1)
	case errors.As(err, &de):
		statTimeouts.Add(1)
	}
	return v, err
}
