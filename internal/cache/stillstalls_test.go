package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// chanBackend is a two-channel backend whose read queues fill and drain
// at the test's whim: a block's channel is its lowest bit, and reads
// complete only when the test fires them, in any order.
type chanBackend struct {
	full   [2]bool
	reads  int
	writes int
	dones  []func(int64)
}

func (b *chanBackend) ch(addr uint64) int { return int(addr/64) & 1 }

func (b *chanBackend) EnqueueRead(addr uint64, done func(int64)) bool {
	if b.full[b.ch(addr)] {
		return false
	}
	b.reads++
	b.dones = append(b.dones, done)
	return true
}

func (b *chanBackend) EnqueueWrite(addr uint64) { b.writes++ }

func (b *chanBackend) ReadFull(addr uint64) bool { return b.full[b.ch(addr)] }

// fireSome completes a random subset of the outstanding reads.
func (b *chanBackend) fireSome(rng *rand.Rand, at int64) {
	keep := b.dones[:0]
	var fire []func(int64)
	for _, d := range b.dones {
		if rng.Intn(3) == 0 {
			fire = append(fire, d)
		} else {
			keep = append(keep, d)
		}
	}
	b.dones = keep
	for _, d := range fire {
		d(at)
	}
}

// TestStillStallsMatchesProbe checks the stall predicate against the
// probe it stands for. Whenever StillStalls(c) is true, retrying core
// c's stalled access must return Stall and leave the whole hierarchy —
// every level, the MSHRs, the counters, the stall marks — and the
// backend untouched. While the stalled block's LLC set has seen no
// insertion the predicate must also be exact: false means the retry
// proceeds.
func TestStillStallsMatchesProbe(t *testing.T) {
	t.Run("PrivateL2HitsKeepSkip", func(t *testing.T) {
		// While core 1 sits probe-stalled, core 0's private L2 hits leave
		// the predicate true, and the retry does stall. A fill into the
		// stalled block's LLC set, or read-queue space, ends it.
		h, b := testHier(2)
		b.full = true
		if res, _ := h.Access(1, 0x40000, false, 0, nil); res != Stall {
			t.Fatalf("access with full backend = %v, want Stall", res)
		}
		if !h.StillStalls(1) {
			t.Fatal("predicate does not vouch for a fresh stall")
		}
		h.l2[0].Insert(7, false)
		h.l2[0].Insert(8, false)
		for _, blk := range []uint64{7, 8} {
			if res, lat := h.Access(0, blk*64, false, 0, nil); res != Hit || lat != h.cfg.L2.LatencyCPU {
				t.Fatalf("core 0 access = %v/%d, want an L2 hit", res, lat)
			}
		}
		if !h.StillStalls(1) {
			t.Fatal("private L2 hits on another core ended the skip")
		}
		if res, _ := h.Access(1, 0x40000, false, 0, nil); res != Stall {
			t.Fatalf("retry after private hits = %v, want Stall", res)
		}
		b.full = false
		if h.StillStalls(1) {
			t.Fatal("predicate vouches for a stall with read-queue space")
		}
		b.full = true
		h.insertLLC(0x40000/64+uint64(h.cfg.LLC.Sets()), false) // same LLC set
		if h.StillStalls(1) {
			t.Fatal("predicate vouches for a stall across an insertion into the block's LLC set")
		}
	})

	t.Run("Random", func(t *testing.T) {
		const cores, steps = 3, 40_000
		cfg := HierarchyConfig{
			Cores: cores,
			L1:    Config{SizeBytes: 1 << 10, Ways: 4, LatencyCPU: 4, MSHRs: 3},
			L2:    Config{SizeBytes: 4 << 10, Ways: 4, LatencyCPU: 12, MSHRs: 3},
			LLC:   Config{SizeBytes: 16 << 10, Ways: 8, LatencyCPU: 38, MSHRs: 5},
		}
		rng := rand.New(rand.NewSource(11))
		b := &chanBackend{}
		h := NewHierarchy(cfg, b, fixedClock{})
		type access struct {
			addr  uint64
			write bool
			ok    bool
		}
		var stalled [cores]access
		var vouched, exact, retries int
		for step := 0; step < steps; step++ {
			if rng.Intn(4) == 0 {
				b.full[rng.Intn(2)] = rng.Intn(2) == 0
			}
			if rng.Intn(3) == 0 {
				b.fireSome(rng, int64(step))
			}
			c := rng.Intn(cores)
			a := stalled[c]
			if !a.ok {
				// A fresh access: a pool of 1024 blocks, so cores share
				// blocks, merge into each other's misses and evict.
				blk := uint64(rng.Intn(1024))
				if rng.Intn(4) == 0 {
					blk = uint64(rng.Intn(64)) // a hot set of blocks
				}
				a = access{addr: blk * 64, write: rng.Intn(4) == 0, ok: true}
				if res, _ := h.Access(c, a.addr, a.write, 0, nil); res == Stall {
					stalled[c] = a
				}
				continue
			}
			retries++
			m := h.stalls[c]
			quiet := h.llcVer[h.llc.setOf(m.block)] == m.ver
			if h.StillStalls(c) {
				vouched++
				before, marks := h.Snapshot(), append([]stallMark(nil), h.stalls...)
				r0, w0 := b.reads, b.writes
				if res, _ := h.Access(c, a.addr, a.write, 0, nil); res != Stall {
					t.Fatalf("step %d: core %d: StillStalls is true but the retry of %+v returned %v", step, c, a, res)
				}
				if !reflect.DeepEqual(h.Snapshot(), before) || !reflect.DeepEqual(h.stalls, marks) ||
					b.reads != r0 || b.writes != w0 {
					t.Fatalf("step %d: core %d: a vouched-for retry changed the hierarchy or the backend", step, c)
				}
				continue
			}
			res, _ := h.Access(c, a.addr, a.write, 0, nil)
			if quiet {
				exact++
				if res == Stall {
					t.Fatalf("step %d: core %d: StillStalls is false with the LLC set unchanged, but the retry of %+v stalled", step, c, a)
				}
			}
			if res != Stall {
				stalled[c] = access{}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		t.Logf("%d retries: %d vouched for, %d refused with the set unchanged", retries, vouched, exact)
		if vouched < 1000 || exact < 1000 || vouched == retries {
			t.Fatalf("weak stream: %d retries, %d vouched for, %d refused with the set unchanged", retries, vouched, exact)
		}
	})
}
