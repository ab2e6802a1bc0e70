package nda

import (
	"math/rand"
	"testing"
)

// TestStochasticDecisionsPinnedAcrossRestore pins the Stochastic write
// policy's coin: every write attempt's issue/inhibit decision must equal
// math/rand's Float64() < StochasticProb on the rank's seed, and a rank
// FSM restored from a mid-run snapshot must continue the same decision
// stream the live one goes on to make.
func TestStochasticDecisionsPinnedAcrossRestore(t *testing.T) {
	cfg := Config{Policy: Stochastic, StochasticProb: 0.25, Seed: 11}
	mkOp := func() *Op {
		op := NewOp(OpCOPY,
			[]Iter{SliceIter(seqAddrs(0, 0, 0, 512))},
			SliceIter(seqAddrs(0, 0, 800, 512)), nil)
		op.Tag = "copy"
		return op
	}
	e, _, mcs := testSetup(cfg)
	e.Launch(0, 0, mkOp)
	n := e.Ranks[0][0]

	// A tick that draws makes exactly one decision: inhibit when it also
	// counted a policy stall, issue otherwise.
	var decisions []bool
	var st *EngineState
	const cut = 3000
	for c := int64(0); c < 8000; c++ {
		if c == cut {
			var err error
			if st, err = e.Snapshot(func(any) int { return 0 }); err != nil {
				t.Fatal(err)
			}
			if got := uint64(len(decisions)); got != n.fsm.coin.Draws() {
				t.Fatalf("%d decisions observed, coin drawn %d times", got, n.fsm.coin.Draws())
			}
		}
		draws, stalls := n.fsm.coin.Draws(), n.fsm.stats.StallsPolicy
		for _, h := range mcs {
			h.Tick(c)
		}
		tickNDAs(e, c)
		switch n.fsm.coin.Draws() - draws {
		case 0:
		case 1:
			decisions = append(decisions, n.fsm.stats.StallsPolicy == stalls)
		default:
			t.Fatalf("cycle %d: coin drawn %d times in one tick", c, n.fsm.coin.Draws()-draws)
		}
	}
	atCut := int(st.Ranks[0][0].RNGDraws)
	if atCut == 0 || atCut == len(decisions) {
		t.Fatalf("snapshot at %d of %d decisions: want a cut strictly inside the run", atCut, len(decisions))
	}

	ref := rand.New(rand.NewSource(cfg.Seed))
	for i, d := range decisions {
		if want := ref.Float64() < cfg.StochasticProb; d != want {
			t.Fatalf("decision %d: issued=%v, math/rand says %v", i, d, want)
		}
	}

	fresh, _, _ := testSetup(cfg)
	fresh.Restore(st, func(int) *Op { return mkOp() })
	coin := fresh.Ranks[0][0].fsm.coin
	if coin.Draws() != uint64(atCut) {
		t.Fatalf("restored coin at %d draws, snapshot recorded %d", coin.Draws(), atCut)
	}
	for i, d := range decisions[atCut:] {
		if got := coin.Below(fresh.Ranks[0][0].stochCut); got != d {
			t.Fatalf("decision %d after restore: restored coin says %v, live run issued=%v", atCut+i, got, d)
		}
	}
}
