package mc

import (
	"testing"
	"unsafe"

	"chopim/internal/dram"
)

// TestBankEntryOneLine pins the scheduling cache's layout: the dense
// sched array is streamed by the controller's hottest loop, and each
// entry must stay 32 bytes, two to a 64-byte cache line.
func TestBankEntryOneLine(t *testing.T) {
	if n := unsafe.Sizeof(bankEntry{}); n != 32 {
		t.Fatalf("bankEntry is %d bytes, want 32", n)
	}
}

// parkPair is a production (lazy-key) controller and the rescan oracle
// on twin devices, fed identical requests and internal (NDA) commands.
// The production side is driven wake to wake on its own memoized
// NextEvent, as the system drives it; the oracle ticks every cycle.
type parkPair struct {
	t          *testing.T
	memA, memB *dram.Mem
	ctlA, ctlB *Controller

	skipped      int
	doneA, doneB []int64
}

func newParkPair(t *testing.T) *parkPair {
	g := dram.DefaultGeometry()
	p := &parkPair{t: t, memA: testMem(g), memB: testMem(g)}
	p.ctlA = NewController(p.memA, 0)
	p.ctlB = NewController(p.memB, 0)
	p.ctlB.SetReferenceScheduler(true)
	return p
}

// internal issues an NDA-side command on both devices.
func (p *parkPair) internal(cmd dram.Command, a dram.Addr, now int64) {
	p.t.Helper()
	if !p.memA.CanIssue(cmd, a, now, true) || !p.memB.CanIssue(cmd, a, now, true) {
		p.t.Fatalf("internal %v to %+v illegal at %d", cmd, a, now)
	}
	p.memA.Issue(cmd, a, now, true)
	p.memB.Issue(cmd, a, now, true)
}

func (p *parkPair) read(addr uint64, a dram.Addr, now int64) {
	p.ctlA.EnqueueRead(addr, a, now, func(d int64) { p.doneA = append(p.doneA, d) })
	p.ctlB.EnqueueRead(addr, a, now, func(d int64) { p.doneB = append(p.doneB, d) })
}

func (p *parkPair) write(addr uint64, a dram.Addr, now int64) {
	p.ctlA.EnqueueWrite(addr, a, now)
	p.ctlB.EnqueueWrite(addr, a, now)
}

// tick runs one cycle on both controllers and checks that they made
// the same decision and that the production side's invariants hold.
func (p *parkPair) tick(cyc int64) {
	p.t.Helper()
	p.ctlB.Tick(cyc)
	if p.ctlA.NextEvent(cyc) <= cyc {
		p.ctlA.Tick(cyc)
	} else {
		p.ctlA.ClearIssued()
		p.skipped++
	}
	if a, b := ctrlState(p.ctlA, p.memA), ctrlState(p.ctlB, p.memB); a != b {
		p.t.Fatalf("cycle %d: decisions diverged:\n keys: %s\n ref:      %s", cyc, a, b)
	}
	if err := p.ctlA.CheckInvariants(cyc); err != nil {
		p.t.Fatalf("cycle %d: %v", cyc, err)
	}
}

// drain ticks until both controllers' queues are empty and checks the
// read completions agree.
func (p *parkPair) drain(from int64) {
	p.t.Helper()
	for cyc := from; ; cyc++ {
		ra, wa := p.ctlA.QueueOccupancy()
		rb, wb := p.ctlB.QueueOccupancy()
		if ra+wa+rb+wb == 0 {
			break
		}
		if cyc > from+10_000 {
			p.t.Fatalf("queues failed to drain: keys %d/%d, ref %d/%d", ra, wa, rb, wb)
		}
		p.tick(cyc)
	}
	if len(p.doneA) != len(p.doneB) {
		p.t.Fatalf("read completions: keys %v, ref %v", p.doneA, p.doneB)
	}
	for i := range p.doneA {
		if p.doneA[i] != p.doneB[i] {
			p.t.Fatalf("read completion %d: keys %d, ref %d", i, p.doneA[i], p.doneB[i])
		}
	}
}

// TestBlockedPrechargeParks pins the parking rule for precharges the
// open-page rule blocks. A read queued to a row conflict makes its
// bank's candidate a PRE; a write to the open row, held back by the
// rank's read-to-write turnaround, keeps that PRE blocked (rowWanted).
// The blocked PRE must drop out of the bank's key — the read queue has
// no row hit on the bank, so the bank is parked at key Never — and the
// controller must sleep until the write matures instead of polling the
// PRE. The PRE returns on either event that can lift the block, with every decision
// identical to the rescan oracle:
//
//   - other-queue-dequeue: the write issues, which clears the read
//     queue's mark and resets the bank's key to -1;
//   - row-change: an NDA closes the row first, which the channel's row
//     log reports.
func TestBlockedPrechargeParks(t *testing.T) {
	g := dram.DefaultGeometry()
	bank := dram.Addr{Row: 100}              // rank 0, flat bank 0
	other := dram.Addr{BankGroup: 1, Row: 5} // same rank, another bank group
	bk := int32(bank.GlobalBank(g))          // channel 0, rank 0
	conflict, hit := bank, bank
	conflict.Row = 200

	for _, tc := range []struct {
		name    string
		closeAt int64 // cycle of the NDA PRE on the bank; 0 = none
	}{
		{name: "other-queue-dequeue"},
		{name: "row-change", closeAt: 105},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newParkPair(t)
			p.internal(dram.CmdACT, bank, 0)
			p.internal(dram.CmdACT, other, 20)
			// An NDA read on the other bank pushes the rank's WR horizon
			// by the read-to-write turnaround; the bank's PRE is ready.
			now := int64(100)
			p.internal(dram.CmdRD, other, now)
			wrReady := now + int64(dram.ReadToWrite)
			p.read(1<<20, conflict, now)
			p.write(2<<20, hit, now)
			p.tick(now)

			q := &p.ctlA.rq
			e := &q.sched[q.occPos[bk]]
			if k := keyOf(q, bk); !e.preBlocked || k != dram.Never {
				t.Fatalf("blocked PRE: preBlocked=%v key=%d, want a parked bank (key Never)", e.preBlocked, k)
			}
			if next := p.ctlA.NextEvent(now + 1); next != wrReady {
				t.Fatalf("NextEvent(%d) = %d, want the write's turnaround horizon %d", now+1, next, wrReady)
			}

			for cyc := now + 1; cyc < wrReady; cyc++ {
				if cyc == tc.closeAt {
					p.internal(dram.CmdPRE, bank, cyc)
					p.tick(cyc)
					if keyOf(q, bk) == dram.Never {
						t.Fatalf("cycle %d: row change left the bank parked", cyc)
					}
					continue
				}
				p.tick(cyc)
			}
			if tc.closeAt == 0 {
				p.tick(wrReady)
				if p.ctlA.WritesIssued != 1 {
					t.Fatalf("write did not issue at its horizon %d", wrReady)
				}
				if e, k := &q.sched[q.occPos[bk]], keyOf(q, bk); e.preBlocked || k != -1 {
					t.Fatalf("after the write's dequeue: preBlocked=%v key=%d, want an unmarked bank keyed for revalidation (-1)",
						e.preBlocked, k)
				}
				p.drain(wrReady + 1)
			} else {
				p.drain(wrReady)
			}
			if p.skipped == 0 {
				t.Fatal("the production controller never slept through the blocked window")
			}
			if p.ctlA.PresIssued == 0 || p.ctlA.ReadsIssued != 1 || p.ctlA.WritesIssued != 1 {
				t.Fatalf("degenerate run: pres=%d reads=%d writes=%d",
					p.ctlA.PresIssued, p.ctlA.ReadsIssued, p.ctlA.WritesIssued)
			}
		})
	}
}
