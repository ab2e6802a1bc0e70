package mc

import (
	"encoding/json"
	"math/rand"
	"testing"

	"chopim/internal/dram"
)

// calCase is one TestCalendarInvalidationMatchesReference scenario: how
// the NDA-style streams pick their banks, and which log-coverage edge
// cases the run forces on top of the shared traffic.
type calCase struct {
	name string
	// hostBanks retargets each NDA stream, after every PRE, onto a bank
	// the host currently queues to (unpartitioned NDA row commands on
	// host-occupied banks, half the time on the host's own row).
	hostBanks bool
	// warmBurst periodically opens more banks than the row log holds
	// (dram.Mem.WarmOpen, an out-of-band row change) between two scans
	// of both queues, forcing the log-overflow full resync.
	warmBurst bool
	// restore periodically rebuilds the calendar controller from its own
	// snapshot, and its device through the durable codec (which drops
	// the row log), right after a cycle's NDA commands and before the
	// controller has synced them.
	restore bool
}

// TestCalendarInvalidationMatchesReference is the calendar-path
// equivalence fuzz: the production (calendar) controller is driven
// wake-to-wake off its memoized NextEvent exactly as the system
// dispatcher drives it — skipped cycles execute nothing but the
// per-cycle issued-rank reset (ClearIssued) — while the rescan oracle
// ticks every cycle. The wake memo must survive internal columns (they
// only push horizons later), so the run also asserts that the
// production controller slept through some. On top of the
// host request stream, NDA-style INTERNAL commands issue directly into
// both device models: internal ACT/PRE exercise the row-log resync
// (foreign row-state changes parking exactly their banks), internal
// columns exercise the lazy timing-staleness path (keys left stale-low
// and revalidated when they come due), and sharing banks with host
// traffic exercises candidate-structure changes the controller itself
// never caused. The cases add NDA row commands aimed at host-occupied
// banks, row-log overflow between two scans of a queue, and Restore in
// the middle of a burst. Any lost wakeup, stale-high key, or decision
// divergence shows up as a state mismatch, an invariant violation, or
// an un-drained queue.
func TestCalendarInvalidationMatchesReference(t *testing.T) {
	for _, tc := range []calCase{
		{name: "shared-banks"},
		{name: "nda-on-host-banks", hostBanks: true},
		{name: "log-overflow", warmBurst: true},
		{name: "restore-mid-burst", hostBanks: true, restore: true},
	} {
		t.Run(tc.name, func(t *testing.T) { runCalendarEquivalence(t, tc) })
	}
}

func runCalendarEquivalence(t *testing.T, tc calCase) {
	g := dram.DefaultGeometry()
	mapper := testMap(g)
	memA := testMem(g)
	memB := testMem(g)
	ctlA := NewController(memA, 0, inline)
	ctlB := NewController(memB, 0, inline)
	ctlB.SetReferenceScheduler(true)

	rng := rand.New(rand.NewSource(0xCA1 + int64(len(tc.name))))
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = uint64(rng.Intn(1<<22) * dram.BlockBytes)
	}
	nextAddr := func() uint64 {
		if rng.Intn(100) < 60 {
			return hot[rng.Intn(len(hot))] + uint64(rng.Intn(64))*dram.BlockBytes
		}
		return uint64(rng.Intn(1<<26)) * dram.BlockBytes
	}

	// NDA-style per-rank streams: each opens its row, issues a few
	// internal columns, and closes it, deciding from the bank's live
	// state (a host command or a warm open may have moved it) and
	// advancing only when the device admits the command — mirroring how
	// a rank NDA interleaves with the host on shared banks.
	type ndaStream struct {
		a    dram.Addr
		cols int // internal columns left before the stream closes its row
	}
	streams := make([]*ndaStream, g.Ranks)
	for r := range streams {
		streams[r] = &ndaStream{a: dram.Addr{Channel: 0, Rank: r, BankGroup: r % dram.BankGroups, Bank: 0, Row: 7000 + r}}
	}
	// retarget moves a stream onto a bank the host queues to on its rank.
	retarget := func(s *ndaStream) {
		var keys []int32
		for _, q := range []*reqQueue{&ctlA.rq, &ctlA.wq} {
			for _, bk := range q.occ {
				if int(bk)/dram.BanksPerRank == s.a.Rank {
					keys = append(keys, bk)
				}
			}
		}
		if len(keys) == 0 {
			return
		}
		bk := keys[rng.Intn(len(keys))]
		flat := int(bk) % dram.BanksPerRank
		s.a.BankGroup, s.a.Bank = flat/dram.BanksPerGroup, flat%dram.BanksPerGroup
		s.a.Row = 7000 + rng.Intn(8)
		if rng.Intn(2) == 0 {
			if r := ctlA.rq.banks[bk].head; r != nil {
				s.a.Row = r.DAddr.Row
			}
		}
	}

	var doneA, doneB []int64
	readDoneA := func(d int64) { doneA = append(doneA, d) }
	readDoneB := func(d int64) { doneB = append(doneB, d) }
	// step drives the production controller one cycle wake-to-wake on
	// its own memoized NextEvent, as the system does, and reports
	// whether the cycle was skipped. colMemo is the wake memo an
	// internal column was issued under while the memo was pending
	// (colUnderMemo); a skipped cycle still serving that same memo slept
	// across the column.
	type memo struct {
		hint        int64
		ver, rowSeq uint64
	}
	memoOf := func() memo { return memo{ctlA.hint, ctlA.hintVer, ctlA.hintRowSeq} }
	var colMemo memo
	colUnderMemo := false
	step := func(cyc int64) bool {
		if ctlA.NextEvent(cyc) <= cyc {
			ctlA.Tick(cyc)
			colUnderMemo = false
			return false
		}
		ctlA.ClearIssued()
		return true
	}
	skipped, skippedAcrossCols, restores := 0, 0, 0
	for cyc := int64(0); cyc < 40_000; cyc++ {
		for rng.Intn(100) < 25 {
			addr := nextAddr()
			if mapper.Decode(addr).Channel != 0 {
				continue
			}
			if rng.Intn(100) < 35 {
				enqWrite(ctlA, mapper, addr, cyc)
				enqWrite(ctlB, mapper, addr, cyc)
			} else {
				okA := enqRead(ctlA, mapper, addr, cyc, readDoneA)
				okB := enqRead(ctlB, mapper, addr, cyc, readDoneB)
				if okA != okB {
					t.Fatalf("cycle %d: enqueue accept diverged", cyc)
				}
			}
		}
		// Internal (NDA) commands, identical on both devices.
		for _, s := range streams {
			if rng.Intn(100) >= 40 {
				continue
			}
			var cmd dram.Command
			switch row, open := memA.OpenRow(s.a); {
			case !open:
				cmd = dram.CmdACT
			case row == s.a.Row && s.cols > 0:
				cmd = dram.CmdRD
				if rng.Intn(2) == 0 {
					cmd = dram.CmdWR
				}
			default:
				cmd = dram.CmdPRE
			}
			if !memA.CanIssue(cmd, s.a, cyc, true) {
				continue
			}
			if !memB.CanIssue(cmd, s.a, cyc, true) {
				t.Fatalf("cycle %d: internal %v legality diverged", cyc, cmd)
			}
			memA.Issue(cmd, s.a, cyc, true)
			memB.Issue(cmd, s.a, cyc, true)
			switch cmd {
			case dram.CmdACT:
				s.cols = 1 + rng.Intn(4)
			case dram.CmdPRE:
				if tc.hostBanks {
					retarget(s)
				}
			default:
				s.cols--
				if ctlA.hintValid && ctlA.hint > cyc {
					colMemo, colUnderMemo = memoOf(), true
				}
			}
		}
		if tc.warmBurst && cyc%700 == 350 {
			for i := 0; i < dram.RowLogLen+16; i++ {
				a := dram.Addr{Channel: 0, Rank: rng.Intn(g.Ranks), BankGroup: rng.Intn(dram.BankGroups),
					Bank: rng.Intn(dram.BanksPerGroup), Row: rng.Intn(dram.Rows)}
				if rng.Intn(2) == 0 {
					if r := ctlA.rq.head; r != nil {
						a.Row = r.DAddr.Row
					}
				}
				memA.WarmOpen(a)
				memB.WarmOpen(a)
			}
		}
		if tc.restore && cyc%3000 == 1500 {
			st := ctlA.Snapshot()
			b, err := json.Marshal(memA.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var ms dram.MemState
			if err := json.Unmarshal(b, &ms); err != nil {
				t.Fatal(err)
			}
			memA.Restore(&ms)
			ctlA.Restore(st, func(write bool, _, _ uint64) func(int64) {
				if write {
					return nil
				}
				return readDoneA
			})
			colUnderMemo = false // Restore drops the memo
			restores++
		}
		// Oracle: every cycle. Production: wake-to-wake.
		ctlB.Tick(cyc)
		if step(cyc) {
			skipped++
			if colUnderMemo && memoOf() == colMemo {
				skippedAcrossCols++
			}
		}
		if a, b := ctrlState(ctlA, memA), ctrlState(ctlB, memB); a != b {
			t.Fatalf("cycle %d: state diverged:\n calendar: %s\n ref:      %s", cyc, a, b)
		}
		if ctlA.HostIssuedRank() != ctlB.HostIssuedRank() {
			t.Fatalf("cycle %d: HostIssuedRank diverged: %d vs %d",
				cyc, ctlA.HostIssuedRank(), ctlB.HostIssuedRank())
		}
		if len(doneA) != len(doneB) {
			t.Fatalf("cycle %d: completion counts diverged", cyc)
		}
		if cyc%97 == 0 {
			if err := ctlA.CheckInvariants(cyc); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("wake-driven path never skipped a cycle; sleep machinery untested")
	}
	if skippedAcrossCols == 0 {
		t.Fatal("no cycle was skipped on a wake memo held across an internal column")
	}
	if tc.restore && restores == 0 {
		t.Fatal("no mid-run restore happened")
	}
	// Drain: every queued request must retire without further enqueues
	// (a lost wakeup would leave the calendar controller stuck; keep
	// driving it wake-to-wake).
	for cyc := int64(40_000); ; cyc++ {
		ra, wa := ctlA.QueueOccupancy()
		rb, wb := ctlB.QueueOccupancy()
		if ra == 0 && wa == 0 && rb == 0 && wb == 0 {
			break
		}
		if cyc > 400_000 {
			t.Fatalf("queues failed to drain: calendar %d/%d, ref %d/%d", ra, wa, rb, wb)
		}
		ctlB.Tick(cyc)
		step(cyc)
	}
	for i := range doneA {
		if doneA[i] != doneB[i] {
			t.Fatalf("read completion %d diverged: %d vs %d", i, doneA[i], doneB[i])
		}
	}
	if ctlA.ReadsIssued == 0 || ctlA.WritesIssued == 0 || ctlA.PresIssued == 0 {
		t.Fatalf("degenerate stream: reads=%d writes=%d pres=%d",
			ctlA.ReadsIssued, ctlA.WritesIssued, ctlA.PresIssued)
	}
}

// TestCalendarRowStampRebucket pins the eager half of the calendar's
// invalidation split: an internal (NDA) row command changes a bank's
// candidate structure underneath the controller — something the
// controller's own command stream never caused — and the next
// scheduling decision must re-derive, not serve the stale bucket.
func TestCalendarRowStampRebucket(t *testing.T) {
	g := dram.DefaultGeometry()
	mapper := testMap(g)
	mem := testMem(g)
	c := NewController(mem, 0, inline)

	// A host read to a closed bank: the bank files under its ACT
	// horizon (pass-2 candidate).
	addr := addrOnChannel0(mapper, 0)
	da := mapper.Decode(addr)
	var done int64 = -1
	if !enqRead(c, mapper, addr, 0, func(d int64) { done = d }) {
		t.Fatal("enqueue refused")
	}
	if next := c.NextEvent(0); next > 0 {
		t.Fatalf("ACT candidate ready at 0, NextEvent=%d", next)
	}
	// Before the controller runs, an NDA activates the very row the
	// host wants (legal: the bank is closed and idle). The host's
	// candidate flips from ACT to a row-hit column; the row log records
	// the bank, so the controller must re-key it and issue RD — issuing
	// the stale ACT would panic inside dram.Issue (bank already open).
	if !mem.CanIssue(dram.CmdACT, da, 0, true) {
		t.Fatal("internal ACT should be legal on the idle bank")
	}
	mem.Issue(dram.CmdACT, da, 0, true)
	for cyc := int64(0); cyc < 100 && done < 0; cyc++ {
		c.Tick(cyc)
	}
	if done < 0 {
		t.Fatal("read never completed after NDA opened its row")
	}
	if c.ActsIssued != 0 {
		t.Fatalf("controller issued %d ACTs; the NDA's ACT should have served the row", c.ActsIssued)
	}
	if got := mem.Counts().RD; got != 1 {
		t.Fatalf("RD count = %d, want 1", got)
	}

}

// keyOf returns occupied bank bk's lazy key in q.
func keyOf(q *reqQueue, bk int32) int64 { return q.key[q.occPos[bk]] }

// TestCalendarLazyVsEagerInvalidation pins the invalidation split at
// the key level (white box). Internal column traffic must NOT reset a
// key: the staled key is a lower bound that gets revalidated when it
// comes due, and is rewritten at the exact pushed-out cycle. A row
// change (ACT, PRE, WarmOpen) must reset exactly its own bank's key
// when the queue holds it, before any horizon is trusted — and nothing
// otherwise: other banks of the same rank keep their keys untouched.
func TestCalendarLazyVsEagerInvalidation(t *testing.T) {
	g := dram.DefaultGeometry()
	mapper := testMap(g)

	t.Run("column-lazy", func(t *testing.T) {
		mem := testMem(g)
		c := NewController(mem, 0, inline)
		// Open a row internally and enqueue a host hit against it: the
		// bank's pass-1 candidate is fenced by tRCD, so the first
		// horizon derivation keys the bank at ACT+tRCD.
		addr := addrOnChannel0(mapper, 0)
		da := mapper.Decode(addr)
		mem.Issue(dram.CmdACT, da, 0, true)
		if !enqRead(c, mapper, addr, 0, nil) {
			t.Fatal("enqueue refused")
		}
		rdReady := int64(dram.RCD)
		if next := c.NextEvent(0); next != rdReady {
			t.Fatalf("NextEvent(0) = %d, want tRCD = %d", next, rdReady)
		}
		bk := int32(da.Rank*dram.BanksPerRank + da.GlobalBank())
		q := &c.rq
		if k := keyOf(q, bk); k != rdReady {
			t.Fatalf("bank keyed at %d, want %d", k, rdReady)
		}
		// An internal column on the same rank pushes the rank's column
		// horizons (tCCD) but changes no row state: nothing is logged,
		// the key stays put, and revalidation at the stale key rewrites
		// it at the exact pushed-out cycle.
		seq := mem.RowSeq(0)
		mem.Issue(dram.CmdRD, da, rdReady, true)
		pushed := rdReady + int64(dram.CCDL)
		if mem.RowSeq(0) != seq {
			t.Fatal("internal column was logged as a row change")
		}
		if k := keyOf(q, bk); k != rdReady {
			t.Fatalf("column traffic moved the key to %d; expected lazy staleness", k)
		}
		if h := c.queueHorizon(q, false, rdReady); h != pushed {
			t.Fatalf("queueHorizon(%d) = %d, want tCCD_L-pushed %d", rdReady, h, pushed)
		}
		if k := keyOf(q, bk); k != pushed {
			t.Fatalf("stale key revalidated to %d, want %d", k, pushed)
		}
		// The wake memo (rdReady) was derived before the column and may
		// be served as the lower bound it still is, never beyond the
		// pushed-out cycle.
		if next := c.NextEvent(rdReady); next > pushed {
			t.Fatalf("NextEvent(%d) = %d, beyond the pushed-out cycle %d", rdReady, next, pushed)
		}
	})

	t.Run("row-change-per-bank", func(t *testing.T) {
		mem := testMem(g)
		c := NewController(mem, 0, inline)
		// Banks A and B (rank 0, different bank groups) are opened and
		// closed by an NDA, so their next ACT waits out tRC; bank C (a
		// third bank group) is the NDA's and the host never queues to it.
		bankA := dram.Addr{BankGroup: 0, Row: 100}
		bankB := dram.Addr{BankGroup: 1, Row: 100}
		bankC := dram.Addr{BankGroup: 2, Row: 300}
		actB := int64(dram.RRDS)
		preB := actB + int64(dram.RAS)
		mem.Issue(dram.CmdACT, bankA, 0, true)
		mem.Issue(dram.CmdACT, bankB, actB, true)
		mem.Issue(dram.CmdPRE, bankA, int64(dram.RAS), true)
		mem.Issue(dram.CmdPRE, bankB, preB, true)
		keyA, keyB := int64(dram.RC), actB+int64(dram.RC)

		// Host reads to rows 200 of A and B: closed banks, so each
		// bank's candidate is an ACT at its tRC horizon.
		hostA, hostB := bankA, bankB
		hostA.Row, hostB.Row = 200, 200
		now := preB
		c.EnqueueRead(1<<20, hostA, now, nil)
		c.EnqueueRead(2<<20, hostB, now, nil)
		if next := c.NextEvent(now); next != keyA {
			t.Fatalf("NextEvent(%d) = %d, want bank A's tRC horizon %d", now, next, keyA)
		}
		q := &c.rq
		bkA := int32(hostA.GlobalBank())
		bkB := int32(hostB.GlobalBank())
		for _, b := range []struct {
			bk  int32
			key int64
		}{{bkA, keyA}, {bkB, keyB}} {
			if k := keyOf(q, b.bk); k != b.key {
				t.Fatalf("bank %d keyed at %d, want %d", b.bk, k, b.key)
			}
		}

		// An NDA ACT on C: logged, but the queue holds no request for C,
		// so the sync resets nothing. A and B keep their keys, and
		// nothing revisits B before its key comes due.
		now++
		mem.Issue(dram.CmdACT, bankC, now, true)
		c.sync(q)
		if q.rowSeen != mem.RowSeq(0) {
			t.Fatal("sync did not consume the row log")
		}
		if kA, kB := keyOf(q, bkA), keyOf(q, bkB); kA != keyA || kB != keyB {
			t.Fatalf("row change on an unqueued bank reset queued banks: A key=%d, B key=%d", kA, kB)
		}
		if next := c.NextEvent(now); next != keyA {
			t.Fatalf("NextEvent(%d) = %d after the ACT on C, want %d", now, next, keyA)
		}

		// A row change on A itself — an out-of-band open at the host's
		// row — makes A's read a row hit ready now, long before A's key.
		// The sync must reset exactly A's key, leave B's, and the
		// controller must issue A's read now.
		now++
		mem.WarmOpen(hostA)
		c.sync(q)
		if k := keyOf(q, bkA); k != -1 {
			t.Fatalf("row change on queued bank A left its key at %d", k)
		}
		if k := keyOf(q, bkB); k != keyB {
			t.Fatalf("row change on bank A moved bank B's key to %d", k)
		}
		if next := c.NextEvent(now); next != now {
			t.Fatalf("NextEvent(%d) = %d, want due now (A's read is a ready row hit)", now, next)
		}
		c.Tick(now)
		if c.ReadsIssued != 1 || c.ActsIssued != 0 {
			t.Fatalf("after the warm open: reads=%d acts=%d, want the row-hit read and no ACT",
				c.ReadsIssued, c.ActsIssued)
		}
	})
}
