package dram

import (
	"math/rand"
	"testing"
)

// randAddr draws a uniformly random in-range address.
func randAddr(rng *rand.Rand, g Geometry) Addr {
	return Addr{
		Channel:   rng.Intn(Channels),
		Rank:      rng.Intn(g.Ranks),
		BankGroup: rng.Intn(BankGroups),
		Bank:      rng.Intn(BanksPerGroup),
		Row:       rng.Intn(256),
		Col:       rng.Intn(Cols),
	}
}

var allCommands = []Command{CmdACT, CmdPRE, CmdRD, CmdWR}

// TestCanIssueCacheMatchesReference drives the device with random
// command streams (issuing whatever the reference check admits, host and
// NDA paths mixed) and checks, at every step, the horizons CanIssue
// folds on demand against canIssueRef, which checks rule by rule. For a
// battery of random (cmd, addr, now, internal) probes, CanIssue and
// canIssueRef agree, TryIssue refuses every probe the reference
// rejects, and NextIssue is consistent with both: no issue opportunity
// before the bound, an admitted issue at the bound for
// non-structurally-blocked commands. The scheduler's read path is held
// to the same oracle: each probed bank's BankSched ready cycles, and
// ExtColReady folded into its column ones, must be exact (see
// checkSchedReady).
func TestCanIssueCacheMatchesReference(t *testing.T) {
	g := DefaultGeometry()
	m := newMem(t, g)
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	for step := 0; step < 30_000; step++ {
		now += int64(rng.Intn(3))
		cmd := allCommands[rng.Intn(len(allCommands))]
		a := randAddr(rng, g)
		internal := rng.Intn(2) == 0
		if m.canIssueRef(cmd, a, now, internal) {
			if !m.TryIssue(cmd, a, now, internal) {
				t.Fatalf("step %d: TryIssue(%v,%+v,%d,%v) refused a legal command", step, cmd, a, now, internal)
			}
			now++ // one command per cycle per channel at most
		}
		for probe := 0; probe < 4; probe++ {
			pc := allCommands[rng.Intn(len(allCommands))]
			pa := randAddr(rng, g)
			pn := now + int64(rng.Intn(64))
			pi := rng.Intn(2) == 0
			got := m.CanIssue(pc, pa, pn, pi)
			want := m.canIssueRef(pc, pa, pn, pi)
			if got != want {
				t.Fatalf("step %d: CanIssue(%v,%+v,%d,%v) folded=%v ref=%v",
					step, pc, pa, pn, pi, got, want)
			}
			if !want && m.TryIssue(pc, pa, pn, pi) {
				t.Fatalf("step %d: TryIssue(%v,%+v,%d,%v) applied an illegal command", step, pc, pa, pn, pi)
			}
			ni := m.NextIssue(pc, pa, pn, pi)
			if ni > pn && m.canIssueRef(pc, pa, ni-1, pi) {
				t.Fatalf("step %d: %v %+v issuable at %d before NextIssue=%d",
					step, pc, pa, ni-1, ni)
			}
			checkSchedReady(t, m, step, pa)
		}
	}
}

// checkSchedReady holds the scheduler's read path for a's bank to
// canIssueRef: BankSched's row state matches OpenRow, and each ready
// cycle it returns (ExtColReady folded into the column ones for the
// external path) is exact for every command the bank's row state does
// not structurally block: not legal one cycle before, legal at the
// cycle. Column commands are probed at the open row.
func checkSchedReady(t *testing.T, m *Mem, step int, a Addr) {
	t.Helper()
	row, open, readyACT, readyPRE, readyRD, readyWR := m.BankSched(a.Channel, a.Rank, a.BankGroup, a.GlobalBank())
	if r, o := m.OpenRow(a); o != open || o && r != row {
		t.Fatalf("step %d: BankSched row state (%d,%v), OpenRow (%d,%v)", step, row, open, r, o)
	}
	exact := func(cmd Command, a Addr, ready int64, internal bool) {
		t.Helper()
		if m.canIssueRef(cmd, a, ready-1, internal) || !m.canIssueRef(cmd, a, ready, internal) {
			t.Fatalf("step %d: %v %+v (internal=%v) ready cycle %d is not exact: legal at %d: %v, at %d: %v",
				step, cmd, a, internal, ready, ready-1, m.canIssueRef(cmd, a, ready-1, internal),
				ready, m.canIssueRef(cmd, a, ready, internal))
		}
	}
	if !open {
		exact(CmdACT, a, readyACT, true)
		return
	}
	exact(CmdPRE, a, readyPRE, true)
	a.Row = row
	exact(CmdRD, a, readyRD, true)
	exact(CmdWR, a, readyWR, true)
	exact(CmdRD, a, max(readyRD, m.ExtColReady(a.Channel, CmdRD, a.Rank)), false)
	exact(CmdWR, a, max(readyWR, m.ExtColReady(a.Channel, CmdWR, a.Rank)), false)
}
