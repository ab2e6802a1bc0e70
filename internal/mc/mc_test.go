package mc

import (
	"testing"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
)

func testController() (*Controller, *dram.Mem, *addrmap.Map) {
	g := dram.DefaultGeometry()
	mem := testMem(g)
	return NewController(mem, 0, inline), mem, testMap(g)
}

// inline is the completion sink of a harness with no mailbox: it runs
// each completion at issue time.
func inline(done func(int64), at int64) { done(at) }

// testMem builds a device over g, which must be valid.
func testMem(g dram.Geometry) *dram.Mem {
	mem, err := dram.New(g)
	if err != nil {
		panic(err)
	}
	return mem
}

// testMap builds the baseline mapping over g, which must be valid.
func testMap(g dram.Geometry) *addrmap.Map {
	m, err := addrmap.New(g, 0)
	if err != nil {
		panic(err)
	}
	return m
}

// enqRead and enqWrite enqueue addr on c decoded through m, as the
// Router does.
func enqRead(c *Controller, m *addrmap.Map, addr uint64, now int64, done func(int64)) bool {
	return c.EnqueueRead(addr, m.Decode(addr), now, done)
}

func enqWrite(c *Controller, m *addrmap.Map, addr uint64, now int64) {
	c.EnqueueWrite(addr, m.Decode(addr), now)
}

// addrOnChannel0 finds a block address decoding to channel 0.
func addrOnChannel0(m *addrmap.Map, start uint64) uint64 {
	for a := start; ; a += dram.BlockBytes {
		if m.Decode(a).Channel == 0 {
			return a
		}
	}
}

func TestReadCompletesWithDRAMLatency(t *testing.T) {
	c, mem, m := testController()
	addr := addrOnChannel0(m, 0)
	var doneAt int64 = -1
	if !enqRead(c, m, addr, 0, func(d int64) { doneAt = d }) {
		t.Fatal("enqueue refused on empty queue")
	}
	for cyc := int64(0); cyc < 200 && doneAt < 0; cyc++ {
		c.Tick(cyc)
	}
	if doneAt < 0 {
		t.Fatal("read never completed")
	}
	// ACT + RD: at least tRCD + CL + BL.
	min := int64(dram.RCD + dram.CL + dram.BL)
	if doneAt < min {
		t.Errorf("read completed at %d, faster than tRCD+CL+BL=%d", doneAt, min)
	}
	if c.ReadsIssued != 1 || mem.Counts().RD != 1 {
		t.Errorf("read accounting: mc=%d dram=%d", c.ReadsIssued, mem.Counts().RD)
	}
}

func TestReadQueueCapacity(t *testing.T) {
	c, _, m := testController()
	a := addrOnChannel0(m, 0)
	for i := 0; i < readQueueSize; i++ {
		if !enqRead(c, m, addrOnChannel0(m, a+uint64(i)*4096*64), 0, nil) {
			t.Fatalf("queue refused entry %d", i)
		}
	}
	if enqRead(c, m, addrOnChannel0(m, a+1<<30), 0, nil) {
		t.Error("queue accepted entry beyond capacity")
	}
}

func TestWriteOverflowNeverRefused(t *testing.T) {
	c, _, m := testController()
	a := addrOnChannel0(m, 0)
	for i := 0; i < 3*writeQueueSize; i++ {
		enqWrite(c, m, addrOnChannel0(m, a+uint64(i)*64*128), 0)
	}
	r, w := c.QueueOccupancy()
	if r != 0 || w != 3*writeQueueSize {
		t.Errorf("occupancy = %d/%d", r, w)
	}
}

func TestWriteDrainServesWrites(t *testing.T) {
	c, mem, m := testController()
	a := addrOnChannel0(m, 0)
	for i := 0; i < drainHigh+2; i++ {
		enqWrite(c, m, addrOnChannel0(m, a+uint64(i)*64*97), 0)
	}
	for cyc := int64(0); cyc < 3000; cyc++ {
		c.Tick(cyc)
	}
	if mem.Counts().WR == 0 {
		t.Error("drain mode issued no writes")
	}
	if c.Drains == 0 {
		t.Error("drain mode never triggered above high watermark")
	}
}

// TestForeignChannelRefused: a controller keys its queues by (rank,
// bank) of its own channel, so enqueueing another channel's address is
// a caller bug and panics rather than aliasing a local bank.
func TestForeignChannelRefused(t *testing.T) {
	c, _, m := testController()
	var foreign uint64
	for m.Decode(foreign).Channel == 0 {
		foreign += dram.BlockBytes
	}
	for _, tc := range []struct {
		name    string
		enqueue func()
	}{
		{"EnqueueRead", func() { enqRead(c, m, foreign, 0, nil) }},
		{"EnqueueWrite", func() { enqWrite(c, m, foreign, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a channel-%d address did not panic", tc.name, m.Decode(foreign).Channel)
				}
			}()
			tc.enqueue()
		})
	}
	if r, w := c.QueueOccupancy(); r != 0 || w != 0 {
		t.Errorf("refused requests left occupancy %d/%d", r, w)
	}
}

func TestRowHitPriorityFRFCFS(t *testing.T) {
	c, mem, m := testController()
	// Two reads to the same row (hit after ACT), one to a different row
	// of the same bank enqueued between them: FR-FCFS should serve both
	// same-row reads before the conflicting one.
	base := addrOnChannel0(m, 0)
	d0 := m.Decode(base)
	var sameRow, otherRow uint64
	found := 0
	for a := base + dram.BlockBytes; found < 2; a += dram.BlockBytes {
		d := m.Decode(a)
		if d.Channel != 0 || d.Rank != d0.Rank || d.BankGroup != d0.BankGroup || d.Bank != d0.Bank {
			continue
		}
		if d.Row == d0.Row && sameRow == 0 {
			sameRow = a
			found++
		}
		if d.Row != d0.Row && otherRow == 0 {
			otherRow = a
			found++
		}
	}
	var order []uint64
	mk := func(addr uint64) func(int64) {
		return func(int64) { order = append(order, addr) }
	}
	enqRead(c, m, base, 0, mk(base))
	enqRead(c, m, otherRow, 0, mk(otherRow))
	enqRead(c, m, sameRow, 0, mk(sameRow))
	for cyc := int64(0); cyc < 1000 && len(order) < 3; cyc++ {
		c.Tick(cyc)
	}
	if len(order) != 3 {
		t.Fatalf("only %d reads completed", len(order))
	}
	if order[2] != otherRow {
		t.Errorf("row conflict served before row hits: order=%v (conflict=%#x)", order, otherRow)
	}
	_ = mem
}

func TestOldestReadRank(t *testing.T) {
	c, _, m := testController()
	if _, ok := c.OldestReadRank(); ok {
		t.Error("OldestReadRank reported a rank on empty queue")
	}
	a := addrOnChannel0(m, 0)
	enqRead(c, m, a, 0, nil)
	r, ok := c.OldestReadRank()
	if !ok || r != m.Decode(a).Rank {
		t.Errorf("OldestReadRank = (%d,%v)", r, ok)
	}
}

func TestHasDemandFor(t *testing.T) {
	c, _, m := testController()
	a := addrOnChannel0(m, 0)
	d := m.Decode(a)
	enqRead(c, m, a, 0, nil)
	if !c.HasDemandFor(d.Rank, d.GlobalBank()) {
		t.Error("demand not visible for queued read's bank")
	}
	if c.HasDemandFor(d.Rank, (d.GlobalBank()+1)%dram.BanksPerRank) {
		t.Error("phantom demand on other bank")
	}
}

func TestHostIssuedRankTracksCycle(t *testing.T) {
	c, _, m := testController()
	a := addrOnChannel0(m, 0)
	enqRead(c, m, a, 0, nil)
	c.Tick(0) // ACT issues
	if c.HostIssuedRank() != m.Decode(a).Rank {
		t.Errorf("HostIssuedRank = %d after ACT", c.HostIssuedRank())
	}
	// Drain the queue, then an idle cycle reports no rank.
	for cyc := int64(1); cyc < 200; cyc++ {
		c.Tick(cyc)
	}
	if c.HostIssuedRank() != -1 {
		t.Errorf("HostIssuedRank = %d when idle, want -1", c.HostIssuedRank())
	}
}

// addrOnChRank finds a block address decoding to channel 0 and the
// given rank.
func addrOnChRank(m *addrmap.Map, rank int, start uint64) uint64 {
	for a := start; ; a += dram.BlockBytes {
		if d := m.Decode(a); d.Channel == 0 && d.Rank == rank {
			return a
		}
	}
}

// TestNDAVerNarrowsQueueChurn pins the per-rank staleness contract the
// NDA engine relies on: NDAVer(r) moves exactly when rank r's
// sleep-bound inputs (read-queue head identity, rank-r bucket occupancy
// in either queue) can have moved, even while the queues churn on
// unrelated traffic.
func TestNDAVerNarrowsQueueChurn(t *testing.T) {
	c, _, m := testController()
	a0 := addrOnChRank(m, 0, 0)
	a1 := addrOnChRank(m, 1, 0)

	v0 := c.NDAVer(0)
	// A write to rank 1 must churn the queues but stay invisible to
	// rank 0.
	enqWrite(c, m, a1, 0)
	if _, w := c.QueueOccupancy(); w != 1 {
		t.Fatalf("write queue holds %d, want the rank-1 write", w)
	}
	if c.NDAVer(0) != v0 {
		t.Error("rank-1 write moved NDAVer(0)")
	}
	// It occupies a rank-1 bucket, so rank 1 must see it...
	v1 := c.NDAVer(1)
	if v1 == v0 {
		t.Error("rank-1 write invisible to NDAVer(1)")
	}
	// ...but a second write into the same occupied bucket changes no
	// HasDemandFor answer and must be invisible to both ranks.
	enqWrite(c, m, a1, 0)
	if c.NDAVer(0) != v0 || c.NDAVer(1) != v1 {
		t.Error("same-bucket write moved a per-rank version")
	}

	// A read into the empty read queue changes the head identity, which
	// OldestReadRank on any rank observes.
	enqRead(c, m, a0, 0, nil)
	if c.NDAVer(0) == v0 || c.NDAVer(1) == v1 {
		t.Error("read-head change invisible to a rank")
	}
	v0, v1 = c.NDAVer(0), c.NDAVer(1)
	// A second read behind the head into the same occupied bucket moves
	// neither the head nor any bucket occupancy.
	enqRead(c, m, a0, 0, nil)
	if c.NDAVer(0) != v0 || c.NDAVer(1) != v1 {
		t.Error("same-bucket tail read moved a per-rank version")
	}
}
