package cpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"chopim/internal/cache"
	"chopim/internal/dram"
)

// refCore is the per-instruction core the run-length ROB replaced: one
// Next call and one ROB entry per instruction, one retire step per
// instruction. It is the oracle RunLockstep holds Core to.
type refCore struct {
	id    int
	trace TraceSource
	hier  *cache.Hierarchy

	rob      []refEntry
	doneFns  []func(cpuDone int64)
	head, n  int
	stores   int
	loads    int
	stalled  Instr
	hasStall bool

	blocked    bool
	probeStall bool
	wake       int64
	dirty      bool

	retired int64
}

type refEntry struct {
	doneAt          int64
	pending         bool
	isLoad, isStore bool
}

func newRefCore(id int, trace TraceSource, hier *cache.Hierarchy) *refCore {
	c := &refCore{id: id, trace: trace, hier: hier, rob: make([]refEntry, robSize)}
	c.doneFns = make([]func(int64), robSize)
	for i := range c.doneFns {
		e := &c.rob[i]
		c.doneFns[i] = func(cpuDone int64) {
			e.pending = false
			e.doneAt = cpuDone
			c.dirty = true
		}
	}
	return c
}

func (c *refCore) Blocked() bool    { return c.blocked && !c.dirty }
func (c *refCore) WakeCycle() int64 { return c.wake }

func (c *refCore) tick(now int64) {
	r0 := c.retired
	c.retire(now)
	c.probeStall = false
	if c.issue(now) > 0 || c.retired != r0 {
		c.blocked, c.dirty = false, false
		return
	}
	c.blocked = true
	c.dirty = false
	c.wake = dram.Never
	if c.n > 0 && !c.rob[c.head].pending {
		c.wake = c.rob[c.head].doneAt
	}
}

func (c *refCore) retire(now int64) {
	for retired := 0; retired < width && c.n > 0; retired++ {
		e := &c.rob[c.head]
		if e.pending || e.doneAt > now {
			return
		}
		if e.isLoad {
			c.loads--
		}
		if e.isStore {
			c.stores--
		}
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.n--
		c.retired++
	}
}

func (c *refCore) issue(now int64) int {
	issued := 0
	for ; issued < width && c.n < len(c.rob); issued++ {
		var in Instr
		if c.hasStall {
			in = c.stalled
		} else {
			in = c.trace.Next()
		}
		if in.Serialize && issued > 0 {
			c.stalled = in
			c.hasStall = true
			return issued
		}
		if !c.tryIssue(in, now) {
			c.stalled = in
			c.hasStall = true
			return issued
		}
		c.hasStall = false
	}
	return issued
}

func (c *refCore) tryIssue(in Instr, now int64) bool {
	slot := c.head + c.n
	if slot >= len(c.rob) {
		slot -= len(c.rob)
	}
	e := &c.rob[slot]
	*e = refEntry{}

	if !in.Mem {
		e.doneAt = now + 1
		c.n++
		return true
	}
	if c.loads+c.stores >= lsqSize {
		return false
	}
	res, lat := c.hier.Access(c.id, in.Addr, in.Write, slot, c.doneFns[slot])
	switch res {
	case cache.Stall:
		c.probeStall = true
		return false
	case cache.Hit:
		e.doneAt = now + lat
	case cache.Queued:
		e.pending = true
	}
	if in.Write {
		e.isStore = true
		c.stores++
	} else {
		e.isLoad = true
		c.loads++
	}
	c.n++
	return true
}

// access is one request a core's hierarchy sent to memory.
type access struct {
	addr  uint64
	write bool
}

// lockBackend is one side's memory in RunLockstep: it logs every request
// in order and holds read completions until RunLockstep fires them. Only
// reads can be refused (full); a writeback is always logged, as the
// controller's overflow ring always takes it.
type lockBackend struct {
	full  bool
	log   []access
	dones []func(int64)
}

func (b *lockBackend) EnqueueRead(addr uint64, done func(int64)) bool {
	if b.full {
		return false
	}
	b.log = append(b.log, access{addr, false})
	b.dones = append(b.dones, done)
	return true
}

func (b *lockBackend) EnqueueWrite(addr uint64) {
	b.log = append(b.log, access{addr, true})
}

func (b *lockBackend) ReadFull(addr uint64) bool { return b.full }

// lockHierarchy is a small hierarchy, so a lockstep run sees evictions,
// write-backs and MSHR stalls within a few thousand cycles.
func lockHierarchy() cache.HierarchyConfig {
	h := cache.DefaultHierarchyConfig(1)
	h.L1.SizeBytes, h.L2.SizeBytes, h.LLC.SizeBytes = 4<<10, 16<<10, 64<<10
	h.LLC.MSHRs = 16
	return h
}

// hierBytes encodes a hierarchy's state with every MSHR waiter's ROB
// slot cleared: the two cores name a waiting load by different slots
// (an instruction index against an entry index), and everything else
// must match.
func hierBytes(t *testing.T, h *cache.Hierarchy) []byte {
	t.Helper()
	st := h.Snapshot()
	for i := range st.MSHRs {
		for j := range st.MSHRs[i].Waiters {
			st.MSHRs[i].Waiters[j].Slot = 0
		}
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RunLockstep drives a Core and the per-instruction reference core side
// by side for the given cycles, each over its own trace from mk and its
// own hierarchy. One random schedule toggles both backends' fullness and
// fires their read completions at the same cycles. After every tick the
// two must agree on retirement, ROB and LSQ occupancy, the stalled
// instruction, the blocked-state report, whether the hierarchy vouches
// that the stalled retry stalls again, the LLC counters, and every
// memory request in order.
// Every 256 cycles and at the end they must also agree on the whole
// hierarchy state: every level's lines, recency order and hit/miss
// counters, which record the order of the accesses themselves.
func RunLockstep(t *testing.T, mk func() TraceSource, cycles int64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var bs [2]*lockBackend
	var hs [2]*cache.Hierarchy
	for i := range bs {
		bs[i] = &lockBackend{}
		hs[i] = cache.NewHierarchy(lockHierarchy(), bs[i], fixedClock{})
	}
	c := NewCore(0, mk(), hs[0])
	r := newRefCore(0, mk(), hs[1])
	fired, seen := 0, 0
	for cyc := int64(0); cyc < cycles; cyc++ {
		full := rng.Float64() < 0.3
		bs[0].full, bs[1].full = full, full
		for fired < len(bs[0].dones) && rng.Float64() < 0.4 {
			at := cyc + int64(rng.Intn(40))
			bs[0].dones[fired](at)
			bs[1].dones[fired](at)
			fired++
		}
		c.Tick(cyc)
		r.tick(cyc)
		const f = "retired=%d n=%d loads=%d stores=%d stalled=%+v/%v probe=%v blocked=%v wake=%d reqs=%d stills=%v llc=%d/%d"
		got := fmt.Sprintf(f, c.Retired, c.n, c.loads, c.stores, c.stalled, c.hasStall, c.probeStall,
			c.Blocked(), c.WakeCycle(), len(bs[0].log), hs[0].StillStalls(0), hs[0].LLC().Hits, hs[0].LLC().Misses)
		want := fmt.Sprintf(f, r.retired, r.n, r.loads, r.stores, r.stalled, r.hasStall, r.probeStall,
			r.Blocked(), r.WakeCycle(), len(bs[1].log), hs[1].StillStalls(0), hs[1].LLC().Hits, hs[1].LLC().Misses)
		if got != want {
			t.Fatalf("cycle %d: core diverged from the per-instruction reference:\n got  %s\n want %s", cyc, got, want)
		}
		for ; seen < len(bs[0].log); seen++ {
			if bs[0].log[seen] != bs[1].log[seen] {
				t.Fatalf("cycle %d: memory request %d is %+v, reference %+v", cyc, seen, bs[0].log[seen], bs[1].log[seen])
			}
		}
		if (cyc+1)%256 == 0 || cyc == cycles-1 {
			if !bytes.Equal(hierBytes(t, hs[0]), hierBytes(t, hs[1])) {
				t.Fatalf("cycle %d: hierarchy state diverged from the reference's", cyc)
			}
		}
	}
	if c.Retired == 0 || len(bs[0].log) == 0 {
		t.Fatalf("lockstep run retired %d instructions and sent %d requests; it exercised nothing", c.Retired, len(bs[0].log))
	}
}

// NewRandTrace returns the randomized blocking-cause trace (randTrace)
// for tests outside the package.
func NewRandTrace(seed int64) TraceSource {
	return &randTrace{rng: rand.New(rand.NewSource(seed))}
}
