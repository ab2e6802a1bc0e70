package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"chopim/internal/cache"
)

// scriptTrace yields a fixed instruction sequence then repeats the last.
type scriptTrace struct {
	instrs []Instr
	i      int
}

func (s *scriptTrace) Next() Instr {
	if s.i < len(s.instrs) {
		in := s.instrs[s.i]
		s.i++
		return in
	}
	return Instr{}
}

func (s *scriptTrace) NextRun(max int) (int, Instr, bool) { return runOf(s.Next, max) }

// runOf implements TraceSource.NextRun over a per-instruction stream.
func runOf(next func() Instr, max int) (int, Instr, bool) {
	for plain := 0; plain < max; plain++ {
		if in := next(); in.Mem || in.Serialize {
			return plain, in, true
		}
	}
	return max, Instr{}, false
}

type fakeBackend struct {
	dones []func(int64)
	full  bool
}

func (f *fakeBackend) EnqueueRead(addr uint64, done func(int64)) bool {
	if f.full {
		return false
	}
	f.dones = append(f.dones, done)
	return true
}
func (f *fakeBackend) EnqueueWrite(addr uint64) bool { return true }
func (f *fakeBackend) ReadFull(addr uint64) bool     { return f.full }

type fixedClock struct{}

func (fixedClock) CPUOfDRAM(d int64) int64 { return d }

func newCoreWith(trace TraceSource) (*Core, *fakeBackend) {
	b := &fakeBackend{}
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig(1), b, fixedClock{})
	return NewCore(0, trace, h), b
}

func TestComputeIPCBounded(t *testing.T) {
	c, _ := newCoreWith(&scriptTrace{})
	for cyc := int64(0); cyc < 1000; cyc++ {
		c.Tick(cyc)
	}
	ipc := c.IPC()
	if ipc < 1 || ipc > float64(width) {
		t.Errorf("compute-only IPC = %.2f, want within [1, %d]", ipc, width)
	}
}

func TestSerializeLimitsILP(t *testing.T) {
	all := &scriptTrace{}
	c1, _ := newCoreWith(all)
	for cyc := int64(0); cyc < 2000; cyc++ {
		c1.Tick(cyc)
	}
	serial := &serTrace{}
	c2, _ := newCoreWith(serial)
	for cyc := int64(0); cyc < 2000; cyc++ {
		c2.Tick(cyc)
	}
	if c2.IPC() >= c1.IPC() {
		t.Errorf("fully-serialized IPC %.2f not below unconstrained %.2f", c2.IPC(), c1.IPC())
	}
	if c2.IPC() > 1.1 {
		t.Errorf("fully-serialized IPC %.2f, want ~1", c2.IPC())
	}
}

type serTrace struct{}

func (serTrace) Next() Instr { return Instr{Serialize: true} }

func (s serTrace) NextRun(max int) (int, Instr, bool) { return runOf(s.Next, max) }

func TestLoadMissBlocksRetirement(t *testing.T) {
	tr := &scriptTrace{instrs: []Instr{{Mem: true, Addr: 0x5000}}}
	c, b := newCoreWith(tr)
	for cyc := int64(0); cyc < 50; cyc++ {
		c.Tick(cyc)
	}
	// The load is outstanding; ROB head blocked, but younger compute
	// instructions continue to fill the ROB.
	if len(b.dones) != 1 {
		t.Fatalf("expected 1 outstanding miss, got %d", len(b.dones))
	}
	retiredBefore := c.Retired
	if retiredBefore != 0 {
		t.Errorf("retired %d instructions past an incomplete load at ROB head", retiredBefore)
	}
	b.dones[0](60)
	for cyc := int64(50); cyc < 300; cyc++ {
		c.Tick(cyc)
	}
	if c.Retired == 0 {
		t.Error("no retirement after load completion")
	}
}

func TestMLPMultipleOutstandingLoads(t *testing.T) {
	var instrs []Instr
	for i := 0; i < 8; i++ {
		instrs = append(instrs, Instr{Mem: true, Addr: uint64(0x10000 + i*4096)})
	}
	tr := &scriptTrace{instrs: instrs}
	c, b := newCoreWith(tr)
	for cyc := int64(0); cyc < 10; cyc++ {
		c.Tick(cyc)
	}
	if len(b.dones) < 4 {
		t.Errorf("only %d overlapping misses; OoO core should expose MLP", len(b.dones))
	}
	_ = c
}

func TestIPCZeroBeforeRun(t *testing.T) {
	c, _ := newCoreWith(&scriptTrace{})
	if c.IPC() != 0 {
		t.Error("IPC nonzero before any cycle")
	}
}

// randTrace drives the soundness test with a deterministic pseudo-random
// mix of compute, serialize heads, loads, and stores over a small
// region, shaped to hit every blocking cause (MSHR probe stalls, LSQ
// saturation, ROB fill behind a pending head).
type randTrace struct{ rng *rand.Rand }

func (r *randTrace) Next() Instr {
	in := Instr{Serialize: r.rng.Float64() < 0.4}
	if r.rng.Float64() < 0.7 {
		in.Mem = true
		in.Write = r.rng.Float64() < 0.3
		in.Addr = uint64(r.rng.Intn(1 << 22))
	}
	return in
}

func (r *randTrace) NextRun(max int) (int, Instr, bool) { return runOf(r.Next, max) }

// coreState reduces the observable core state (everything but the cycle
// counter, which blocked ticks are defined to advance).
func coreState(c *Core) string {
	return fmt.Sprintf("ret=%d n=%d head=%d loads=%d stores=%d stall=%v probe=%v",
		c.Retired, c.n, c.head, c.loads, c.stores, c.hasStall, c.probeStall)
}

// TestNextEventNeverOvershoots single-steps a core against a scripted
// backend and asserts the NextEvent soundness contract: whenever
// NextEvent claims the next change lies at wake > now, ticking the core
// at now under unchanged external state must be a no-op (only Cycles
// advances), and the hierarchy must be left untouched (no enqueues, no
// counter movement — the side-effect-free Stall contract). Completions
// are injected at pseudo-random cycles between ticks, exactly where the
// memory system fires them; each one resets the claim via the dirty
// flag.
func TestNextEventNeverOvershoots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := &fakeBackend{}
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig(1), b, fixedClock{})
	c := NewCore(0, &randTrace{rng: rand.New(rand.NewSource(11))}, h)

	pending := 0 // outstanding dones not yet fired
	for cyc := int64(0); cyc < 200_000; cyc++ {
		// Randomly toggle backend fullness and fire queued completions
		// between ticks. Both are external events: NextEvent's bound is
		// conditioned on external state staying put (the system layer
		// re-dispatches the core when it does not), so a change voids
		// this cycle's claim.
		externalChanged := false
		if full := rng.Float64() < 0.3; full != b.full {
			b.full = full
			externalChanged = true
		}
		for len(b.dones) > pending && rng.Float64() < 0.4 {
			b.dones[pending](cyc + int64(rng.Intn(40)))
			pending++
			externalChanged = true
		}
		w := c.NextEvent(cyc)
		if w < cyc {
			t.Fatalf("cycle %d: NextEvent returned past cycle %d", cyc, w)
		}
		before := coreState(c)
		enq := len(b.dones)
		// LLC misses are the canary for the Stall contract here (every
		// stalling probe misses all three levels; only the shared LLC
		// is reachable from this test's accessors).
		llcMisses := h.LLC().Misses
		c.Tick(cyc)
		if w > cyc && !externalChanged {
			if got := coreState(c); got != before {
				t.Fatalf("cycle %d: NextEvent claimed idle until %d but state changed:\n before: %s\n after:  %s",
					cyc, w, before, got)
			}
			if len(b.dones) != enq {
				t.Fatalf("cycle %d: claimed-idle tick enqueued a memory access", cyc)
			}
			if h.LLC().Misses != llcMisses {
				t.Fatalf("cycle %d: claimed-idle tick moved LLC miss counters (Stall contract violated)", cyc)
			}
		}
	}
	if c.Retired == 0 {
		t.Fatal("trace retired nothing; the soundness run exercised no progress")
	}
}
