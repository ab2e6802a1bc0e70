package dram_test

import (
	"math/rand"
	"testing"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
)

// TestRandomLegalSequencesKeepInvariants drives the device model with
// random command streams, issuing whatever CanIssue admits, and checks
// protocol invariants the scheduler relies on:
//
//   - data bursts on one rank's data path never overlap;
//   - a bank is never activated while open or accessed while closed;
//   - at most four ACTs land in any tFAW window per rank;
//   - command counters reconcile with issued commands.
func TestRandomLegalSequencesKeepInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		runRandomSequence(t, seed, 4000)
	}
}

func runRandomSequence(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dram.Geometry{Channels: 1, Ranks: 2, BankGroups: 2, BanksPerGroup: 2, Rows: 64, Cols: 16}
	m, err := dram.New(g)
	if err != nil {
		t.Fatal(err)
	}

	type burst struct{ start, end int64 }
	lastBurst := make(map[int]burst) // per rank
	var actTimes [][]int64           // per rank, issue cycles
	actTimes = make([][]int64, g.Ranks)
	var issued int64

	now := int64(0)
	for s := 0; s < steps; s++ {
		cmd := dram.Command(rng.Intn(4))
		a := dram.Addr{
			Rank:      rng.Intn(g.Ranks),
			BankGroup: rng.Intn(g.BankGroups),
			Bank:      rng.Intn(g.BanksPerGroup),
			Row:       rng.Intn(g.Rows),
			Col:       rng.Intn(g.Cols),
		}
		internal := rng.Intn(2) == 0
		// Column commands must target the open row to be legal; steer
		// half of them there to get decent coverage.
		if (cmd == dram.CmdRD || cmd == dram.CmdWR) && rng.Intn(2) == 0 {
			if row, open := m.OpenRow(a); open {
				a.Row = row
			}
		}
		if m.CanIssue(cmd, a, now, internal) {
			// Invariant: ACT only on closed banks; RD/WR only on the
			// open row (CanIssue admitted it, cross-check state).
			row, open := m.OpenRow(a)
			switch cmd {
			case dram.CmdACT:
				if open {
					t.Fatalf("seed %d: ACT admitted on open bank at %d", seed, now)
				}
				actTimes[a.Rank] = append(actTimes[a.Rank], now)
			case dram.CmdRD, dram.CmdWR:
				if !open || row != a.Row {
					t.Fatalf("seed %d: column admitted on closed/mismatched row at %d", seed, now)
				}
			}
			m.Issue(cmd, a, now, internal)
			issued++
			if cmd == dram.CmdRD || cmd == dram.CmdWR {
				var start int64
				if cmd == dram.CmdRD {
					start = now + int64(dram.CL)
				} else {
					start = now + int64(dram.CWL)
				}
				end := start + int64(dram.BL)
				if lb, ok := lastBurst[a.Rank]; ok && start < lb.end && lb.start < end {
					t.Fatalf("seed %d: overlapping data bursts on rank %d: [%d,%d) vs [%d,%d)",
						seed, a.Rank, lb.start, lb.end, start, end)
				}
				if b, ok := lastBurst[a.Rank]; !ok || b.end < end {
					lastBurst[a.Rank] = burst{start, end}
				}
			}
		}
		now += int64(rng.Intn(3))
	}

	for r, times := range actTimes {
		for i := 4; i < len(times); i++ {
			if times[i]-times[i-4] < int64(dram.FAW) {
				t.Fatalf("seed %d: rank %d saw 5 ACTs within tFAW (%d..%d)",
					seed, r, times[i-4], times[i])
			}
		}
	}
	if got := m.Counts().ACT + m.Counts().PRE + m.Counts().RD + m.Counts().WR + m.Counts().NDARD + m.Counts().NDAWR; got != issued {
		t.Fatalf("seed %d: counter total %d != issued %d", seed, got, issued)
	}
}

// TestNDAAndHostInterleavingFairness issues host and NDA columns to the
// same open row alternately: both must make progress and the rank-level
// spacing must hold between mixed-source commands.
func TestNDAAndHostInterleavingFairness(t *testing.T) {
	m, err := dram.New(dram.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	a := dram.Addr{Row: 5}
	m.Issue(dram.CmdACT, a, 0, false)
	now := int64(dram.RCD)
	var host, ndas int
	var last int64 = -1 << 40
	for now < 3000 {
		internal := (host+ndas)%2 == 1
		if m.CanIssue(dram.CmdRD, a, now, internal) {
			m.Issue(dram.CmdRD, a, now, internal)
			if last > -1<<39 && now-last < int64(dram.CCDL) {
				t.Fatalf("mixed-source columns %d cycles apart, tCCD_L=%d", now-last, dram.CCDL)
			}
			last = now
			if internal {
				ndas++
			} else {
				host++
			}
		}
		now++
	}
	if host == 0 || ndas == 0 {
		t.Fatalf("progress: host=%d nda=%d", host, ndas)
	}
}

// fuzzGeometry is small enough that fuzzing sweeps a meaningful
// fraction of the address space while still exercising every field of
// the partitioned mapping (multi-channel, multi-rank, bank groups).
func fuzzGeometry() dram.Geometry {
	return dram.Geometry{Channels: 2, Ranks: 2, BankGroups: 2, BanksPerGroup: 2, Rows: 256, Cols: 16}
}

// flatten packs a decoded address into a unique integer for collision
// checks.
func flatten(g dram.Geometry, a dram.Addr) uint64 {
	k := uint64(a.Channel)
	k = k*uint64(g.Ranks) + uint64(a.Rank)
	k = k*uint64(g.BankGroups) + uint64(a.BankGroup)
	k = k*uint64(g.BanksPerGroup) + uint64(a.Bank)
	k = k*uint64(g.Rows) + uint64(a.Row)
	k = k*uint64(g.Cols) + uint64(a.Col)
	return k
}

// FuzzPartitionedMapping fuzzes the proposed Fig 4b mapping
// (addrmap.New with banks reserved) for its two load-bearing guarantees:
//
//   - map/unmap bijectivity: distinct block addresses within capacity
//     decode to distinct DRAM locations (with equal cardinality on both
//     sides, injectivity is bijectivity), so the reserved-bank swap
//     never aliases two physical blocks;
//   - partition isolation: host-region addresses (below HostCapacity)
//     never land in a reserved (shared) bank, and shared-region
//     addresses always do.
func FuzzPartitionedMapping(f *testing.F) {
	g := fuzzGeometry()
	capacity := g.Capacity()
	f.Add(uint64(0), uint64(64), uint8(1))
	f.Add(uint64(0), capacity-64, uint8(1))
	f.Add(capacity/2-64, capacity/2, uint8(2))
	f.Add(capacity-128, capacity-64, uint8(3))
	f.Fuzz(func(t *testing.T, pa1, pa2 uint64, rbRaw uint8) {
		nb := g.BanksPerRank()
		rb := int(rbRaw)%(nb-1) + 1 // reserved banks in [1, nb-1]
		m, err := addrmap.New(g, rb)
		if err != nil {
			t.Fatal(err)
		}

		pa1 = pa1 % capacity / dram.BlockBytes * dram.BlockBytes
		pa2 = pa2 % capacity / dram.BlockBytes * dram.BlockBytes
		a1, a2 := m.Decode(pa1), m.Decode(pa2)

		if pa1 != pa2 && flatten(g, a1) == flatten(g, a2) {
			t.Fatalf("rb=%d: %#x and %#x alias to %+v", rb, pa1, pa2, a1)
		}
		for _, p := range []struct {
			pa uint64
			a  dram.Addr
		}{{pa1, a1}, {pa2, a2}} {
			shared := m.IsSharedBank(p.a.GlobalBank(g))
			if p.pa < m.HostCapacity() && shared {
				t.Fatalf("rb=%d: host address %#x landed in reserved bank %+v", rb, p.pa, p.a)
			}
			if p.pa >= m.SharedBase() && !shared {
				t.Fatalf("rb=%d: shared address %#x landed in host bank %+v", rb, p.pa, p.a)
			}
		}
	})
}
