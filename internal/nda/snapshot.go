package nda

import (
	"errors"
	"fmt"

	"chopim/internal/dram"
)

// opState records one in-flight op as (encoded blueprint tag,
// progress). The iterators themselves are never serialized: they are
// pure deterministic streams, so replaying fetched reads and emitted
// writes against a freshly built op reproduces the exact internal
// cursor state.
type opState struct {
	Tag       int
	Fetched   int
	Emitted   int
	Exhausted bool
	PendingWr int
	Pushed    dram.Addr
	HasPushed bool
}

// wbState is one pending result block; Owner indexes the rank's Ops
// slice (an entry's owner always has pendingWr > 0 and therefore is
// still queued).
type wbState struct {
	Addr  dram.Addr
	Owner int
}

type fsmState struct {
	Ops      []opState
	WB       []wbState
	Draining bool
	ReadsRun int
	RNGDraws uint64
	Stats    RankStats
}

// EngineState is a deep copy of every rank FSM's mutable state; its
// exported fields are also the durable checkpoint encoding. The sleep
// caches are not captured: restore marks every rank stale and the
// bounds re-derive from restored state.
type EngineState struct {
	Ranks [][]fsmState // [channel][rank]
}

// Snapshot captures all rank FSMs. encodeTag maps each op's launcher
// blueprint (Op.Tag) to an index the launcher can rebuild the op from
// on restore — the ndart runtime swaps its live pointers for table
// indices here. Snapshot fails under VerifyFSM (the replica FSM is not
// captured) and for ops launched without a tag.
func (e *Engine) Snapshot(encodeTag func(tag any) int) (*EngineState, error) {
	if e.cfg.VerifyFSM {
		return nil, errors.New("nda: snapshot unsupported with VerifyFSM")
	}
	st := &EngineState{Ranks: make([][]fsmState, len(e.Ranks))}
	for ch, row := range e.Ranks {
		st.Ranks[ch] = make([]fsmState, len(row))
		for ri, n := range row {
			f := &n.fsm
			fs := &st.Ranks[ch][ri]
			fs.Draining, fs.ReadsRun = f.draining, f.readsRun
			if f.coin != nil {
				fs.RNGDraws = f.coin.Draws()
			}
			fs.Stats = f.stats
			ownerIdx := make(map[*Op]int, len(f.ops))
			for i, op := range f.ops {
				if op.Tag == nil {
					return nil, fmt.Errorf("nda: op %v on ch%d/rk%d has no snapshot tag", op.Kind, ch, ri)
				}
				fs.Ops = append(fs.Ops, opState{
					Tag: encodeTag(op.Tag), Fetched: op.fetched, Emitted: op.emitted,
					Exhausted: op.exhausted, PendingWr: op.pendingWr,
					Pushed: op.pushed, HasPushed: op.hasPushed,
				})
				ownerIdx[op] = i
			}
			for i := 0; i < f.wb.Len(); i++ {
				ent := f.wb.At(i)
				oi, ok := ownerIdx[ent.owner]
				if !ok {
					return nil, fmt.Errorf("nda: write-buffer entry on ch%d/rk%d owned by a retired op", ch, ri)
				}
				fs.WB = append(fs.WB, wbState{Addr: ent.addr, Owner: oi})
			}
		}
	}
	return st, nil
}

// Restore overwrites every rank FSM with the snapshot. The engine must
// have been built with the same config and geometry. buildOp rebuilds a
// fresh op (fresh iterators, completion wiring included) from a tag
// produced by Snapshot's encodeTag.
func (e *Engine) Restore(st *EngineState, buildOp func(tag int) *Op) {
	if len(st.Ranks) != len(e.Ranks) {
		panic("nda: restore onto an engine with different channel count")
	}
	for ch, row := range e.Ranks {
		if len(st.Ranks[ch]) != len(row) {
			panic("nda: restore onto an engine with different rank count")
		}
		for ri, n := range row {
			fs := &st.Ranks[ch][ri]
			f := &n.fsm
			f.ops = f.ops[:0]
			for _, os := range fs.Ops {
				op := buildOp(os.Tag)
				// Replay the deterministic streams to the recorded
				// position: fetched successful reads reproduce the
				// round-robin operand walk, emitted writes the result
				// cursor. The trailing exhaustion probe (if any) is not
				// replayed — once the flag is set the iterators are never
				// touched again.
				for i := 0; i < os.Fetched; i++ {
					if _, ok := op.nextRead(); !ok {
						panic("nda: restore read replay ran dry")
					}
				}
				for i := 0; i < os.Emitted; i++ {
					if _, ok := op.Writes(); !ok {
						panic("nda: restore write replay ran dry")
					}
				}
				op.emitted = os.Emitted
				op.exhausted = os.Exhausted
				op.pendingWr = os.PendingWr
				op.pushed, op.hasPushed = os.Pushed, os.HasPushed
				f.ops = append(f.ops, op)
			}
			for f.wb.Len() > 0 {
				f.wb.Pop()
			}
			for _, ws := range fs.WB {
				f.wb.Push(wbEntry{addr: ws.Addr, owner: f.ops[ws.Owner]})
			}
			f.draining, f.readsRun = fs.Draining, fs.ReadsRun
			if f.coin != nil {
				f.coin.ReplayTo(fs.RNGDraws)
			}
			f.stats = fs.Stats
			n.sleepStale = true
		}
	}
}
