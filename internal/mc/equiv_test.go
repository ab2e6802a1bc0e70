package mc

import (
	"fmt"
	"math/rand"
	"testing"

	"chopim/internal/dram"
)

// ctrlState reduces a controller (and its device) to the durable
// observable scheduling state compared cycle by cycle. HostIssuedRank is
// deliberately excluded: it is per-cycle transient state, valid only for
// the cycle just ticked (the A/B comparison checks it separately).
func ctrlState(c *Controller, mem *dram.Mem) string {
	rdQ, wrQ := c.QueueOccupancy()
	oldRank, oldOK := c.OldestReadRank()
	return fmt.Sprintf("rd=%d wr=%d acts=%d pres=%d lat=%d drains=%d q=%d/%d old=%d/%v "+
		"ACT=%d PRE=%d RD=%d WR=%d",
		c.ReadsIssued, c.WritesIssued, c.ActsIssued, c.PresIssued, c.ReadLatencySum,
		c.Drains, rdQ, wrQ, oldRank, oldOK,
		mem.Counts().ACT, mem.Counts().PRE, mem.Counts().RD, mem.Counts().WR)
}

// TestBucketedSchedulerMatchesReference drives the bucketed production
// scheduler and the original full-rescan oracle (SetReferenceScheduler)
// from identical random request streams on identical device models, and
// asserts identical issue traces: every counter, queue occupancy, the
// per-cycle issued rank, every read's completion cycle, and the NDA
// coordination hook HasDemandFor over all banks,
// cycle by cycle.
func TestBucketedSchedulerMatchesReference(t *testing.T) {
	// The device model has no refresh; the subtest name records that the
	// traces are compared on a refresh-free DDR4 timing set.
	t.Run("no-refresh", func(t *testing.T) {
		g := dram.DefaultGeometry()
		mapper := testMap(g)
		memA := testMem(g)
		memB := testMem(g)
		ctlA := NewController(memA, 0, inline)
		ctlB := NewController(memB, 0, inline)
		ctlB.SetReferenceScheduler(true)

		var doneA, doneB []int64
		rng := rand.New(rand.NewSource(99))
		// A handful of hot rows plus random spray: drives row hits,
		// conflicts, rowWanted keep-open decisions, and drains.
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
		for cyc := int64(0); cyc < 30_000; cyc++ {
			// Identical enqueue attempts against both controllers.
			for rng.Intn(100) < 30 {
				addr := nextAddr()
				if mapper.Decode(addr).Channel != 0 {
					continue
				}
				if rng.Intn(100) < 35 {
					enqWrite(ctlA, mapper, addr, cyc)
					enqWrite(ctlB, mapper, addr, cyc)
				} else {
					okA := enqRead(ctlA, mapper, addr, cyc, func(d int64) { doneA = append(doneA, d) })
					okB := enqRead(ctlB, mapper, addr, cyc, func(d int64) { doneB = append(doneB, d) })
					if okA != okB {
						t.Fatalf("cycle %d: enqueue accept diverged: bucketed=%v ref=%v", cyc, okA, okB)
					}
				}
			}
			ctlA.Tick(cyc)
			ctlB.Tick(cyc)
			if a, b := ctrlState(ctlA, memA), ctrlState(ctlB, memB); a != b {
				t.Fatalf("cycle %d: state diverged:\n bucketed: %s\n ref:      %s", cyc, a, b)
			}
			if ctlA.HostIssuedRank() != ctlB.HostIssuedRank() {
				t.Fatalf("cycle %d: HostIssuedRank diverged: %d vs %d",
					cyc, ctlA.HostIssuedRank(), ctlB.HostIssuedRank())
			}
			if len(doneA) != len(doneB) {
				t.Fatalf("cycle %d: completion counts diverged: %d vs %d", cyc, len(doneA), len(doneB))
			}
			for r := 0; r < g.Ranks; r++ {
				for b := 0; b < dram.BanksPerRank; b++ {
					if ctlA.HasDemandFor(r, b) != ctlB.HasDemandFor(r, b) {
						t.Fatalf("cycle %d: HasDemandFor(%d,%d) diverged", cyc, r, b)
					}
				}
			}
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
	})
}

// TestNextEventHorizonSound checks the strengthened NextEvent contract
// directly: whenever NextEvent reports a horizon beyond now, ticking
// every cycle up to that horizon must issue nothing and mutate no
// observable counter, and the controller must still make progress once
// the horizon arrives (no lost wakeups: all queued requests eventually
// retire).
func TestNextEventHorizonSound(t *testing.T) {
	g := dram.DefaultGeometry()
	mapper := testMap(g)
	mem := testMem(g)
	c := NewController(mem, 0, inline)
	rng := rand.New(rand.NewSource(5))

	pending := 0
	skips := 0
	for cyc := int64(0); cyc < 60_000; cyc++ {
		for rng.Intn(100) < 10 {
			addr := uint64(rng.Intn(1<<24)) * dram.BlockBytes
			if mapper.Decode(addr).Channel != 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				enqWrite(c, mapper, addr, cyc)
			} else if enqRead(c, mapper, addr, cyc, func(int64) { pending-- }) {
				pending++
			}
		}
		next := c.NextEvent(cyc)
		if next > cyc && next != dram.Never {
			skips++
			before := ctrlState(c, mem)
			for w := cyc; w < next; w++ {
				c.Tick(w)
				if got := ctrlState(c, mem); got != before {
					t.Fatalf("cycle %d: state changed inside idle window [%d,%d):\n before: %s\n after:  %s",
						w, cyc, next, before, got)
				}
			}
			cyc = next - 1 // loop increment lands on the horizon
			continue
		}
		c.Tick(cyc)
	}
	if skips == 0 {
		t.Fatal("NextEvent never reported a skippable window; horizon path untested")
	}
	// Drain: every queued request must retire without further enqueues.
	for cyc := int64(60_000); ; cyc++ {
		r, w := c.QueueOccupancy()
		if r == 0 && w == 0 {
			break
		}
		if cyc > 300_000 {
			t.Fatalf("queues failed to drain: %d reads, %d writes left", r, w)
		}
		c.Tick(cyc)
	}
	if pending != 0 {
		t.Fatalf("%d read completions lost", pending)
	}
}
