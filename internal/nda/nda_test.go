package nda

import (
	"testing"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
	"chopim/internal/mc"
)

func testSetup(cfg Config) (*Engine, *dram.Mem, []*mc.Controller) {
	g := dram.DefaultGeometry()
	mem, err := dram.New(g)
	if err != nil {
		panic(err)
	}
	var mcs []*mc.Controller
	for ch := 0; ch < g.Channels; ch++ {
		mcs = append(mcs, mc.NewController(mem, ch, inline))
	}
	return NewEngine(cfg, mem, mcs, inline), mem, mcs
}

// inline is the completion sink of a harness with no mailbox: it runs
// each completion at issue time.
func inline(done func(int64), at int64) { done(at) }

// testMap is the baseline mapping over the default geometry.
func testMap() *addrmap.Map {
	m, err := addrmap.New(dram.DefaultGeometry(), 0)
	if err != nil {
		panic(err)
	}
	return m
}

// seqAddrs builds n sequential column addresses in one rank/bank row(s).
func seqAddrs(ch, rank, row, n int) []dram.Addr {
	out := make([]dram.Addr, n)
	g := dram.DefaultGeometry()
	for i := range out {
		out[i] = dram.Addr{
			Channel: ch, Rank: rank, BankGroup: 0, Bank: 0,
			Row: row + i/g.Cols, Col: i % g.Cols,
		}
	}
	return out
}

// tickNDAs ticks every channel's rank NDAs on the reference path.
func tickNDAs(e *Engine, now int64) {
	for ch := range e.Ranks {
		e.TickChannel(ch, now, false)
	}
}

func tickAll(e *Engine, mcs []*mc.Controller, from, cycles int64) int64 {
	for c := from; c < from+cycles; c++ {
		for _, h := range mcs {
			h.Tick(c)
		}
		tickNDAs(e, c)
	}
	return from + cycles
}

func TestOpKindProperties(t *testing.T) {
	cases := []struct {
		k      OpKind
		reads  int
		writes bool
	}{
		{OpCOPY, 1, true}, {OpDOT, 2, false}, {OpNRM2, 1, false},
		{OpSCAL, 1, true}, {OpAXPY, 2, true}, {OpAXPBY, 2, true},
		{OpAXPBYPCZ, 3, true}, {OpXMY, 2, true}, {OpGEMV, 1, false},
	}
	for _, c := range cases {
		if got := c.k.ReadOperands(); got != c.reads {
			t.Errorf("%v.ReadOperands() = %d, want %d", c.k, got, c.reads)
		}
		if got := c.k.WritesResult(); got != c.writes {
			t.Errorf("%v.WritesResult() = %v, want %v", c.k, got, c.writes)
		}
	}
}

func TestNewOpValidation(t *testing.T) {
	it := SliceIter(nil)
	mustPanic(t, func() { NewOp(OpDOT, []Iter{it}, nil, nil) })
	mustPanic(t, func() { NewOp(OpCOPY, []Iter{it}, nil, nil) })
	mustPanic(t, func() { NewOp(OpDOT, []Iter{it, it}, it, nil) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestCopyOpMovesAllBlocks(t *testing.T) {
	e, mem, mcs := testSetup(DefaultConfig())
	const n = 256
	var doneAt int64 = -1
	e.Launch(0, 0, func() *Op {
		return NewOp(OpCOPY,
			[]Iter{SliceIter(seqAddrs(0, 0, 0, n))},
			SliceIter(seqAddrs(0, 0, 1000, n)),
			func(c int64) { doneAt = c })
	})
	tickAll(e, mcs, 0, 50000)
	if doneAt < 0 {
		t.Fatal("COPY never completed")
	}
	if mem.Counts().NDARD != n || mem.Counts().NDAWR != n {
		t.Errorf("NDA RD/WR = %d/%d, want %d/%d", mem.Counts().NDARD, mem.Counts().NDAWR, n, n)
	}
	if e.Busy() {
		t.Error("engine still busy after completion")
	}
}

func TestDotReadsRoundRobinBatches(t *testing.T) {
	e, mem, mcs := testSetup(DefaultConfig())
	const n = 64
	done := false
	e.Launch(0, 0, func() *Op {
		return NewOp(OpDOT,
			[]Iter{SliceIter(seqAddrs(0, 0, 0, n)), SliceIter(seqAddrs(0, 0, 500, n))},
			nil, func(int64) { done = true })
	})
	tickAll(e, mcs, 0, 20000)
	if !done {
		t.Fatal("DOT never completed")
	}
	if mem.Counts().NDARD != 2*n || mem.Counts().NDAWR != 0 {
		t.Errorf("NDA RD/WR = %d/%d, want %d/0", mem.Counts().NDARD, mem.Counts().NDAWR, 2*n)
	}
}

// TestCompletionDrainsWriteIterator runs an XMY whose second read
// operand is empty, so the reads end after one operand batch and emit
// only BatchBlocks results, while the result stream holds 64 blocks.
// The op must not complete until maybeComplete has pulled the rest of
// the write iterator through the buffer: all 64 NDA writes issue before
// Done fires.
func TestCompletionDrainsWriteIterator(t *testing.T) {
	e, mem, mcs := testSetup(DefaultConfig())
	const reads, writes = BatchBlocks, 64
	var wrAtDone int64 = -1
	e.Launch(0, 0, func() *Op {
		return NewOp(OpXMY,
			[]Iter{SliceIter(seqAddrs(0, 0, 0, reads)), SliceIter(nil)},
			SliceIter(seqAddrs(0, 0, 1000, writes)),
			func(int64) { wrAtDone = mem.Counts().NDAWR })
	})
	tickAll(e, mcs, 0, 50000)
	if wrAtDone < 0 {
		t.Fatal("XMY never completed")
	}
	if wrAtDone != writes {
		t.Errorf("Done fired after %d NDA writes, want %d", wrAtDone, writes)
	}
	if got := mem.Counts(); got.NDARD != reads || got.NDAWR != writes {
		t.Errorf("NDA RD/WR = %d/%d, want %d/%d", got.NDARD, got.NDAWR, reads, writes)
	}
	if e.Busy() {
		t.Error("engine still busy after completion")
	}
}

// TestWriteBufferBackpressure drives COPYs through the Table II write
// buffer and watches the rank FSM between ticks. Results enter the
// buffer BatchBlocks at a time, and the only drain that starts while
// reads remain is the full-buffer one. A COPY whose result stream keeps
// pace with its reads fills the buffer to exactly WriteBufCap, drains
// it there, and never holds more. A COPY whose result stream ends
// mid-batch leaves the buffer short of full with reads still to run:
// the buffer peaks at its last result, no drain starts until the reads
// are done, and the tail flush writes it out.
func TestWriteBufferBackpressure(t *testing.T) {
	run := func(t *testing.T, reads, writes int) (peak, early int) {
		t.Helper()
		e, mem, mcs := testSetup(DefaultConfig())
		done := false
		e.Launch(0, 0, func() *Op {
			return NewOp(OpCOPY,
				[]Iter{SliceIter(seqAddrs(0, 0, 0, reads))},
				SliceIter(seqAddrs(0, 0, 4000, writes)),
				func(int64) { done = true })
		})
		f := &e.Ranks[0][0].fsm
		for c := int64(0); c < 400_000 && !done; c++ {
			// A drain that starts below capacity while reads remain.
			reading := !f.draining && len(f.ops) > 0 && !f.ops[0].exhausted &&
				f.wb.Len() < WriteBufCap
			tickAll(e, mcs, c, 1)
			if reading && f.draining {
				early++
			}
			peak = max(peak, f.wb.Len())
		}
		if !done {
			t.Fatal("COPY never completed")
		}
		if got := mem.Counts(); got.NDARD != int64(reads) || got.NDAWR != int64(writes) {
			t.Fatalf("NDA RD/WR = %d/%d, want %d/%d", got.NDARD, got.NDAWR, reads, writes)
		}
		return peak, early
	}
	t.Run("full-buffer", func(t *testing.T) {
		peak, early := run(t, 2048, 2048)
		if peak != WriteBufCap || early != 0 {
			t.Errorf("buffer peak %d with %d drains started below capacity, want %d and 0", peak, early, WriteBufCap)
		}
	})
	t.Run("result-stream-ends-mid-batch", func(t *testing.T) {
		const writes = WriteBufCap - BatchBlocks/2
		peak, early := run(t, 4*WriteBufCap, writes)
		if peak != writes || early != 0 {
			t.Errorf("buffer peak %d with %d drains started below capacity, want %d and 0", peak, early, writes)
		}
	})
}

func TestNDAYieldsToHostRank(t *testing.T) {
	e, mem, mcs := testSetup(Config{Policy: IssueIfIdle, Seed: 1})
	// Load host channel 0 with reads on half the cycles while NDA works
	// on rank 0: NDA must still finish, but record host-yield stalls.
	// Reads on every cycle would leave the NDA no idle bus cycle at all.
	m := testMap()
	hostAddrs := make([]uint64, 64)
	for i := range hostAddrs {
		a := uint64(i) * 4096 * 64
		for m.Decode(a).Channel != 0 {
			a += dram.BlockBytes
		}
		hostAddrs[i] = a
	}
	done := false
	e.Launch(0, 0, func() *Op {
		return NewOp(OpNRM2, []Iter{SliceIter(seqAddrs(0, 0, 100, 256))}, nil,
			func(int64) { done = true })
	})
	var cyc int64
	for ; cyc < 200000 && !done; cyc++ {
		if cyc%8 < 4 {
			a := hostAddrs[cyc%64]
			mcs[0].EnqueueRead(a, m.Decode(a), cyc, nil)
		}
		for _, h := range mcs {
			h.Tick(cyc)
		}
		tickNDAs(e, cyc)
	}
	if !done {
		t.Fatal("NDA starved forever under host load")
	}
	st := e.Ranks[0][0].Stats()
	if st.StallsHost == 0 {
		t.Error("no host-priority stalls recorded under contention")
	}
	if mem.Counts().RD == 0 {
		t.Error("host reads never issued")
	}
}

func TestNextRankPredictionInhibitsWrites(t *testing.T) {
	e, _, mcs := testSetup(Config{Policy: NextRank, Seed: 1})
	// A standing host read to rank 0 never issued (we never tick the
	// host MC) keeps the oldest-read predictor pointed at rank 0.
	m := testMap()
	var hostAddr uint64
	for ; ; hostAddr += dram.BlockBytes {
		if d := m.Decode(hostAddr); d.Channel == 0 && d.Rank == 0 {
			break
		}
	}
	mcs[0].EnqueueRead(hostAddr, m.Decode(hostAddr), 0, nil)
	// Place the NDA operands in a bank group the standing host read does
	// not touch, so only the write policy (not host row-command
	// priority) can throttle it.
	hostBank := m.Decode(hostAddr)
	bg := (hostBank.BankGroup + 1) % dram.DefaultGeometry().BankGroups
	mk := func(row, n int) []dram.Addr {
		out := seqAddrs(0, 0, row, n)
		for i := range out {
			out[i].BankGroup = bg
		}
		return out
	}
	e.Launch(0, 0, func() *Op {
		return NewOp(OpCOPY,
			[]Iter{SliceIter(mk(0, 64))},
			SliceIter(mk(900, 64)), nil)
	})
	// Tick only the NDA engine so the host queue stays populated.
	for c := int64(0); c < 5000; c++ {
		tickNDAs(e, c)
	}
	st := e.Ranks[0][0].Stats()
	if st.BlocksWritten != 0 {
		t.Errorf("NDA wrote %d blocks while next-rank predictor targeted its rank", st.BlocksWritten)
	}
	if st.StallsPolicy == 0 {
		t.Error("no policy stalls recorded")
	}
	if st.BlocksRead == 0 {
		t.Error("reads should proceed under write-only throttling")
	}
}

func TestStochasticThrottlesWrites(t *testing.T) {
	slow, _, mcsSlow := testSetup(Config{Policy: Stochastic, StochasticProb: 1.0 / 64, Seed: 1})
	fast, _, mcsFast := testSetup(Config{Policy: Stochastic, StochasticProb: 1.0, Seed: 1})
	mk := func() *Op {
		return NewOp(OpCOPY,
			[]Iter{SliceIter(seqAddrs(0, 0, 0, 256))},
			SliceIter(seqAddrs(0, 0, 800, 256)), nil)
	}
	slow.Launch(0, 0, mk)
	fast.Launch(0, 0, mk)
	tickAll(slow, mcsSlow, 0, 4000)
	tickAll(fast, mcsFast, 0, 4000)
	ws, wf := slow.Ranks[0][0].Stats().BlocksWritten, fast.Ranks[0][0].Stats().BlocksWritten
	if ws >= wf {
		t.Errorf("stochastic 1/64 wrote %d >= prob-1.0's %d", ws, wf)
	}
	if slow.Ranks[0][0].Stats().StallsPolicy == 0 {
		t.Error("low-probability stochastic issue recorded no stalls")
	}
}

func TestReplicaVerificationAcrossPolicies(t *testing.T) {
	for _, pol := range []Policy{IssueIfIdle, Stochastic, NextRank} {
		cfg := Config{Policy: pol, StochasticProb: 0.25, Seed: 3, VerifyFSM: true}
		e, _, mcs := testSetup(cfg)
		done := false
		e.Launch(0, 0, func() *Op {
			return NewOp(OpCOPY,
				[]Iter{SliceIter(seqAddrs(0, 0, 0, 128))},
				SliceIter(seqAddrs(0, 0, 700, 128)),
				func(int64) { done = true })
		})
		tickAll(e, mcs, 0, 30000) // panics on divergence
		if !done {
			t.Errorf("policy %v: op did not complete under verification", pol)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{IssueIfIdle, Stochastic, NextRank} {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
	for k := OpAXPBY; k <= OpGEMV; k++ {
		if k.String() == "" {
			t.Error("empty op name")
		}
	}
}

// TestProtectionFaultOnForeignRank: an op whose pattern strays off its
// own rank must trip the NDA-side protection check.
func TestProtectionFaultOnForeignRank(t *testing.T) {
	e, _, mcs := testSetup(DefaultConfig())
	bad := seqAddrs(0, 0, 0, 4)
	bad[2].Rank = 1 // foreign rank mid-stream
	e.Launch(0, 0, func() *Op {
		return NewOp(OpNRM2, []Iter{SliceIter(bad)}, nil, nil)
	})
	defer func() {
		if recover() == nil {
			t.Error("foreign-rank access did not fault")
		}
	}()
	tickAll(e, mcs, 0, 10000)
}

// TestProtectionFaultOnGuardViolation: a Guard rejecting an access
// faults the op.
func TestProtectionFaultOnGuardViolation(t *testing.T) {
	e, _, mcs := testSetup(DefaultConfig())
	addrs := seqAddrs(0, 0, 0, 4)
	e.Launch(0, 0, func() *Op {
		op := NewOp(OpNRM2, []Iter{SliceIter(addrs)}, nil, nil)
		op.Guard = func(a dram.Addr) bool { return a.Col < 2 } // rejects later blocks
		return op
	})
	defer func() {
		if recover() == nil {
			t.Error("guard violation did not fault")
		}
	}()
	tickAll(e, mcs, 0, 10000)
}
