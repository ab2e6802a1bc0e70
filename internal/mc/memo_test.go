package mc

import (
	"testing"

	"chopim/internal/dram"
)

// TestNextEventMemo pins the controller's wake memo (NextEvent), a
// lower bound on the earliest cycle any candidate can issue. The
// fixture derives a memo from a host read whose row an NDA opened, then
// lets an NDA column on another bank of the same rank push the read's
// horizon past the memo without touching the queues or the row log.
// The memo must survive that column as the lower bound it still is and
// never exceed the rescan oracle's earliest issuable cycle; the due
// scan at the memo must rewrite the bank's key to the exact pushed-out
// cycle and wake there; every event that keys the memo (an enqueue, a
// dequeue, a row change, a Restore) must re-derive it; and a due memo
// must stay due whatever moved.
func TestNextEventMemo(t *testing.T) {
	g := dram.DefaultGeometry()
	other := dram.Addr{Bank: 1, Row: 5} // rank 0, bank group 0
	hit := dram.Addr{Row: 100}          // rank 0, bank group 0, bank 0
	far := dram.Addr{Rank: 1, Row: 7}   // another rank: its own column timing
	bk := int32(hit.GlobalBank(g))      // channel 0, rank 0

	// setup returns the controller with a memo of rdReady derived, the
	// NDA column at c1 = rdReady-2 issued, and the exact pushed-out
	// horizon pushed > rdReady. The two cycles of slack leave c1+1
	// before the memo comes due.
	setup := func(t *testing.T) (c *Controller, mem *dram.Mem, rdReady, c1, pushed int64) {
		t.Helper()
		mem = testMem(g)
		c = NewController(mem, 0, inline)
		mem.Issue(dram.CmdACT, other, 0, true)
		mem.Issue(dram.CmdACT, far, 0, true)
		actHit := int64(dram.RRDL)
		mem.Issue(dram.CmdACT, hit, actHit, true)
		c.EnqueueRead(1<<20, hit, actHit, nil)
		rdReady = actHit + int64(dram.RCD)
		if next := c.NextEvent(actHit); next != rdReady {
			t.Fatalf("NextEvent(%d) = %d, want tRCD = %d", actHit, next, rdReady)
		}
		c1 = rdReady - 2
		if !mem.CanIssue(dram.CmdRD, other, c1, true) {
			t.Fatalf("internal RD on the other bank illegal at %d", c1)
		}
		seq := mem.RowSeq(0)
		mem.Issue(dram.CmdRD, other, c1, true)
		if mem.RowSeq(0) != seq {
			t.Fatal("internal column was logged as a row change")
		}
		pushed = c1 + int64(dram.CCDL)
		return c, mem, rdReady, c1, pushed
	}
	// oracle re-derives the earliest cycle at or after now any queued
	// candidate can issue, the way the rescan oracle sees it, bypassing
	// the keys and the memo.
	oracle := func(c *Controller, now int64) int64 {
		o := dram.Never
		for _, b := range c.rq.occ {
			o = min(o, c.bankOracle(&c.rq, b, dram.CmdRD))
		}
		for _, b := range c.wq.occ {
			o = min(o, c.bankOracle(&c.wq, b, dram.CmdWR))
		}
		return max(o, now)
	}
	// current reports whether the memo is stamped with the live
	// versions, so NextEvent serves it without re-deriving.
	current := func(c *Controller, mem *dram.Mem) bool {
		return c.hintValid && c.hintVer == c.ver && c.hintRowSeq == mem.RowSeq(0)
	}

	t.Run("survives-nda-column", func(t *testing.T) {
		c, _, rdReady, c1, pushed := setup(t)
		for i := 0; i < 2; i++ {
			if next := c.NextEvent(c1); next != rdReady {
				t.Fatalf("query %d: NextEvent(%d) = %d, want the memo %d served across the column", i, c1, next, rdReady)
			}
		}
		if o := oracle(c, c1); o != pushed {
			t.Fatalf("oracle horizon %d, want tCCD_L-pushed %d", o, pushed)
		}
		if err := c.CheckInvariants(c1); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("due-scan-rewrites-key", func(t *testing.T) {
		c, _, rdReady, _, pushed := setup(t)
		if next := c.NextEvent(rdReady); next != rdReady {
			t.Fatalf("NextEvent(%d) = %d, want the memo due", rdReady, next)
		}
		// The early wake: the scan finds the read's column pushed out,
		// issues nothing, rewrites the stale key at the exact cycle and
		// leaves it behind as the memo.
		c.Tick(rdReady)
		if c.ReadsIssued != 0 || c.HostIssuedRank() != -1 {
			t.Fatalf("issued at %d, before the pushed-out cycle %d", rdReady, pushed)
		}
		if k := keyOf(&c.rq, bk); k != pushed {
			t.Fatalf("due scan rewrote the key to %d, want tCCD_L-pushed %d", k, pushed)
		}
		if next := c.NextEvent(rdReady + 1); next != pushed {
			t.Fatalf("NextEvent(%d) = %d, want the rewritten key %d", rdReady+1, next, pushed)
		}
		c.Tick(pushed)
		if c.ReadsIssued != 1 {
			t.Fatalf("read did not issue at its pushed-out cycle %d", pushed)
		}
	})

	for _, ev := range []struct {
		name string
		// apply performs the event at cycle c1 and returns the cycle to
		// query at.
		apply func(t *testing.T, c *Controller, mem *dram.Mem, c1 int64) int64
	}{
		{"enqueue", func(_ *testing.T, c *Controller, _ *dram.Mem, c1 int64) int64 {
			c.EnqueueRead(2<<20, hit, c1, nil)
			return c1
		}},
		{"dequeue", func(t *testing.T, c *Controller, _ *dram.Mem, c1 int64) int64 {
			// A ready row hit on the other rank, issued by a directly
			// driven Tick: the dequeue is the last mutation the memo
			// missed.
			c.EnqueueRead(3<<20, far, c1, nil)
			c.Tick(c1)
			if c.ReadsIssued != 1 || c.HostIssuedRank() != far.Rank {
				t.Fatalf("the other rank's read did not issue at %d", c1)
			}
			c.ClearIssued()
			return c1 + 1
		}},
		{"row-change", func(t *testing.T, c *Controller, mem *dram.Mem, c1 int64) int64 {
			seq := mem.RowSeq(0)
			mem.WarmOpen(hit) // the queued bank, reopened at its own row
			if mem.RowSeq(0) == seq {
				t.Fatal("WarmOpen was not logged as a row change")
			}
			return c1
		}},
		{"restore", func(_ *testing.T, c *Controller, _ *dram.Mem, c1 int64) int64 {
			c.Restore(c.Snapshot(), nil)
			return c1
		}},
	} {
		t.Run(ev.name, func(t *testing.T) {
			c, mem, rdReady, c1, _ := setup(t)
			at := ev.apply(t, c, mem, c1)
			if current(c, mem) {
				t.Fatal("the event left the memo current")
			}
			next := c.NextEvent(at)
			if !current(c, mem) {
				t.Fatalf("NextEvent(%d) served the stale memo %d without re-deriving", at, rdReady)
			}
			if o := oracle(c, at); next > o {
				t.Fatalf("NextEvent(%d) = %d, beyond the oracle's earliest issue cycle %d", at, next, o)
			}
			if err := c.CheckInvariants(at); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("due-stays-due", func(t *testing.T) {
		c, _, rdReady, _, pushed := setup(t)
		// The memo comes due at rdReady; an enqueue then moves ver, and
		// the oracle's horizon lies beyond now, yet the due memo is
		// served.
		c.EnqueueRead(2<<20, hit, rdReady, nil)
		if next := c.NextEvent(rdReady); next != rdReady {
			t.Fatalf("NextEvent(%d) = %d, want the due memo served as now", rdReady, next)
		}
		if c.hint != rdReady {
			t.Fatalf("due memo re-derived to %d", c.hint)
		}
		if o := oracle(c, rdReady); o != pushed {
			t.Fatalf("oracle horizon %d, want tCCD_L-pushed %d", o, pushed)
		}
	})
}
