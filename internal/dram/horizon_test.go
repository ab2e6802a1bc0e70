package dram

import (
	"math/rand"
	"testing"
)

// randAddr draws a uniformly random in-range address.
func randAddr(rng *rand.Rand, g Geometry) Addr {
	return Addr{
		Channel:   rng.Intn(g.Channels),
		Rank:      rng.Intn(g.Ranks),
		BankGroup: rng.Intn(g.BankGroups),
		Bank:      rng.Intn(g.BanksPerGroup),
		Row:       rng.Intn(256),
		Col:       rng.Intn(g.Cols),
	}
}

var allCommands = []Command{CmdACT, CmdPRE, CmdRD, CmdWR}

// TestCanIssueCacheMatchesReference drives the device with random
// command streams (issuing whatever the reference check admits, host and
// NDA paths mixed) and asserts at every step that the horizon-cached
// CanIssue and the uncached canIssueRef agree for a battery of random
// (cmd, addr, now, internal) probes, and that NextIssue is consistent
// with both: no issue opportunity before the bound, an admitted issue at
// the bound for non-structurally-blocked commands. Legal commands issue
// through TryIssue, which must refuse every probe the reference rejects.
func TestCanIssueCacheMatchesReference(t *testing.T) {
	g := DefaultGeometry()
	g.Rows = 256
	m := New(g, DDR42400())
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
				t.Fatalf("step %d: CanIssue(%v,%+v,%d,%v) cached=%v ref=%v",
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
		}
	}
}
