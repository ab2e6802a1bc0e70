package mc

import (
	"strings"
	"testing"

	"chopim/internal/dram"
)

// loadedAt is the last cycle loadedController ticks.
const loadedAt = 39

// loadedController returns a ticked controller with reads still pending
// across several banks — live queue, buckets, and key state for
// the corruption tests to mutilate.
func loadedController(t *testing.T) *Controller {
	t.Helper()
	c, _, m := testController()
	a := addrOnChannel0(m, 0)
	for i := 0; i < 24; i++ {
		// Spread across rows/banks so multiple buckets populate.
		if !enqRead(c, m, a+uint64(i)*(1<<14)*dram.BlockBytes, 0, nil) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	for cyc := int64(0); cyc <= loadedAt; cyc++ {
		c.Tick(cyc)
	}
	if r, _ := c.QueueOccupancy(); r == 0 {
		t.Fatal("all reads completed before the corruption tests could run")
	}
	if err := c.CheckInvariants(loadedAt); err != nil {
		t.Fatalf("healthy controller fails its own invariants: %v", err)
	}
	return c
}

// TestCheckInvariantsHealthy drives a controller through enqueues,
// completions and drains, validating at every stride: a
// legitimately-operating scheduler must never trip the checker.
func TestCheckInvariantsHealthy(t *testing.T) {
	c, _, m := testController()
	a := addrOnChannel0(m, 0)
	next := uint64(0)
	for cyc := int64(0); cyc < 4_000; cyc++ {
		if cyc%7 == 0 {
			enqRead(c, m, addrOnChannel0(m, a+next*(1<<13)*dram.BlockBytes), cyc, nil)
			next++
		}
		if cyc%13 == 0 {
			enqWrite(c, m, addrOnChannel0(m, a+(next+1000)*(1<<13)*dram.BlockBytes), cyc)
		}
		c.Tick(cyc)
		if cyc%50 == 0 {
			if err := c.CheckInvariants(cyc); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
		}
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, c *Controller)
		want    string
	}{
		{"occupancy-counter", func(t *testing.T, c *Controller) {
			c.rq.n++
		}, "arrival list holds"},
		{"bank-key", func(t *testing.T, c *Controller) {
			c.rq.head.bankKey++
		}, "bankKey"},
		{"bucket-count", func(t *testing.T, c *Controller) {
			c.rq.banks[c.rq.occ[0]].n++
		}, "bucket count"},
		{"key-count", func(t *testing.T, c *Controller) {
			c.rq.key = c.rq.key[:len(c.rq.key)-1]
		}, "keys for"},
		{"age-order", func(t *testing.T, c *Controller) {
			if c.rq.head == nil || c.rq.head.qnext == nil {
				t.Skip("need two queued requests")
			}
			c.rq.head.qnext.seq = c.rq.head.seq - 1
		}, "not increasing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := loadedController(t)
			tc.corrupt(t, c)
			err := c.CheckInvariants(loadedAt)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckInvariantsDetectsUnsoundKey gives an occupied bank a
// far-future key — breaking the lower-bound contract the lazy scheduler
// depends on — and asserts the rescan-oracle spot check catches it.
// Banks with a row change still pending in the row log are exempt from
// the contract, so the test first replays the log.
func TestCheckInvariantsDetectsUnsoundKey(t *testing.T) {
	c := loadedController(t)
	q := &c.rq
	c.sync(q)
	if q.rowSeen != c.mem.RowSeq(c.channel) {
		t.Fatal("sync left row changes pending")
	}
	q.key[0] = dram.Never - 1
	err := c.CheckInvariants(loadedAt)
	if err == nil {
		t.Fatal("unsound far-future key not detected")
	}
	if !strings.Contains(err.Error(), "lower bound violated") {
		t.Errorf("error %q does not identify the soundness violation", err)
	}
}

// TestCheckInvariantsDetectsUnsoundMemo derives a wake memo at a host
// read's exact column horizon, then sets it one cycle late — a wake
// past the cycle the rescan oracle issues on — and asserts the memo
// soundness check catches it.
func TestCheckInvariantsDetectsUnsoundMemo(t *testing.T) {
	mem := testMem(dram.DefaultGeometry())
	c := NewController(mem, 0, inline)
	a := dram.Addr{Row: 100}
	mem.Issue(dram.CmdACT, a, 0, true)
	c.EnqueueRead(1<<20, a, 0, nil)
	rdReady := int64(dram.RCD)
	if next := c.NextEvent(0); next != rdReady {
		t.Fatalf("NextEvent(0) = %d, want tRCD = %d", next, rdReady)
	}
	if err := c.CheckInvariants(0); err != nil {
		t.Fatalf("exact memo fails the invariants: %v", err)
	}
	c.hint++
	err := c.CheckInvariants(0)
	if err == nil {
		t.Fatal("memo one cycle past the oracle not detected")
	}
	if !strings.Contains(err.Error(), "wake memo") {
		t.Errorf("error %q does not identify the memo violation", err)
	}
}
