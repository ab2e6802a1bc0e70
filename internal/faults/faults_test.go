package faults

import (
	"testing"

	"chopim/internal/dram"
)

func TestDisarmedIsInert(t *testing.T) {
	if Active() {
		t.Fatal("registry reports armed with no hooks installed")
	}
	if got := Adjust(SimNextEvent, 42); got != 42 {
		t.Fatalf("disarmed Adjust changed value: got %d", got)
	}
}

func TestArmAdjustAndDisarm(t *testing.T) {
	disarm := ArmAdjust(SimNextEvent, func(v int64) int64 { return v + 1 })
	if !Active() {
		t.Fatal("registry not active after arming")
	}
	if got := Adjust(SimNextEvent, 10); got != 11 {
		t.Fatalf("armed Adjust: got %d, want 11", got)
	}
	// Other sites are unaffected.
	if got := Adjust(RunnerPoint, 10); got != 10 {
		t.Fatalf("unrelated site adjusted: got %d", got)
	}
	disarm()
	if Active() {
		t.Fatal("registry still active after disarm")
	}
	if got := Adjust(SimNextEvent, 10); got != 10 {
		t.Fatalf("disarmed Adjust still firing: got %d", got)
	}
}

func TestArmSpecPanicPoint(t *testing.T) {
	if err := ArmSpec("panic-point=2"); err != nil {
		t.Fatal(err)
	}
	defer drainHooks(t)
	if got := Adjust(RunnerPoint, 1); got != 1 {
		t.Fatalf("non-target point adjusted: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic-point hook did not panic at its target")
		}
	}()
	Adjust(RunnerPoint, 2)
}

func TestArmSpecStuckHorizon(t *testing.T) {
	if err := ArmSpec("stuck-horizon=1000"); err != nil {
		t.Fatal(err)
	}
	defer drainHooks(t)
	if got := Adjust(SimNextEvent, 500); got != 500 {
		t.Fatalf("below threshold adjusted: %d", got)
	}
	if got := Adjust(SimNextEvent, 1000); got != dram.Never {
		t.Fatalf("at threshold: got %d, want Never", got)
	}
}

// TestArmSpecDieAfterPoint checks the crash-harness spec parses and
// arms the journal site, and that a bad point count is rejected. The
// kill itself is exercised end to end by the experiments package's
// TestCrashResumeSIGKILL.
func TestArmSpecDieAfterPoint(t *testing.T) {
	if err := ArmSpec("die-after-point=3"); err != nil {
		t.Fatal(err)
	}
	defer drainHooks(t)
	if !Active() {
		t.Fatal("die-after-point armed nothing")
	}
	// Below the count the hook passes the point index through.
	if got := Adjust(PointJournaled, 7); got != 7 {
		t.Fatalf("first journaled point adjusted: %d", got)
	}
	for _, spec := range []string{"die-after-point=", "die-after-point=x", "die-after-point=0", "die-after-point=-1"} {
		if err := ArmSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestArmSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"panic-point", "panic-point=x", "point-err=a:b", "stuck-horizon=", "nonsense=1",
		"ckpt-torn=1", "ckpt-badsum=1", "die-after-ckpt=1"} {
		if err := ArmSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
			drainHooks(t)
		}
	}
}

// drainHooks removes everything ArmSpec installed (it returns no disarm
// closures — CLI hooks live for the process) so tests stay independent.
func drainHooks(t *testing.T) {
	t.Helper()
	DisarmAll()
	if Active() {
		t.Fatal("registry still armed after drain")
	}
}
