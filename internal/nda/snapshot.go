package nda

import (
	"errors"
	"fmt"

	"chopim/internal/dram"
)

// opState records one in-flight op as (blueprint tag, progress). The
// iterators themselves are never serialized: they are pure deterministic
// streams, so replaying fetched reads and emitted writes against a
// freshly built op reproduces the exact internal cursor state.
type opState struct {
	tag       any
	fetched   int
	emitted   int
	exhausted bool
	pendingWr int
	pushed    dram.Addr
	hasPushed bool
}

// wbState is one pending result block; owner indexes the rank's ops
// slice (an entry's owner always has pendingWr > 0 and therefore is
// still queued).
type wbState struct {
	addr  dram.Addr
	owner int
}

type fsmState struct {
	ops      []opState
	wb       []wbState
	draining bool
	readsRun int
	rngDraws uint64
	stats    RankStats
}

// EngineState is an opaque deep copy of every rank FSM's mutable state.
// The sleep caches are not captured: restore marks every rank stale and
// the bounds re-derive from restored state.
type EngineState struct {
	ranks [][]fsmState // [channel][rank]
}

// Snapshot captures all rank FSMs. encodeTag, when non-nil, maps each
// op's launcher blueprint (Op.Tag) to a self-contained value the
// launcher can rebuild from on restore — the ndart runtime swaps its
// live pointers for table indices here. Snapshot fails under VerifyFSM
// (the replica FSM is not captured) and for ops launched without a tag.
func (e *Engine) Snapshot(encodeTag func(tag any) any) (*EngineState, error) {
	if e.cfg.VerifyFSM {
		return nil, errors.New("nda: snapshot unsupported with VerifyFSM")
	}
	st := &EngineState{ranks: make([][]fsmState, len(e.Ranks))}
	for ch, row := range e.Ranks {
		st.ranks[ch] = make([]fsmState, len(row))
		for ri, n := range row {
			f := &n.fsm
			fs := &st.ranks[ch][ri]
			fs.draining, fs.readsRun = f.draining, f.readsRun
			if f.coin != nil {
				fs.rngDraws = f.coin.Draws()
			}
			fs.stats = f.stats
			ownerIdx := make(map[*Op]int, len(f.ops))
			for i, op := range f.ops {
				if op.Tag == nil {
					return nil, fmt.Errorf("nda: op %v on ch%d/rk%d has no snapshot tag", op.Kind, ch, ri)
				}
				tag := op.Tag
				if encodeTag != nil {
					tag = encodeTag(tag)
				}
				fs.ops = append(fs.ops, opState{
					tag: tag, fetched: op.fetched, emitted: op.emitted,
					exhausted: op.exhausted, pendingWr: op.pendingWr,
					pushed: op.pushed, hasPushed: op.hasPushed,
				})
				ownerIdx[op] = i
			}
			for i := 0; i < f.wb.Len(); i++ {
				ent := f.wb.At(i)
				oi, ok := ownerIdx[ent.owner]
				if !ok {
					return nil, fmt.Errorf("nda: write-buffer entry on ch%d/rk%d owned by a retired op", ch, ri)
				}
				fs.wb = append(fs.wb, wbState{addr: ent.addr, owner: oi})
			}
		}
	}
	return st, nil
}

// Restore overwrites every rank FSM with the snapshot. The engine must
// have been built with the same config and geometry. buildOp rebuilds a
// fresh op (fresh iterators, completion wiring included) from a tag
// produced by Snapshot's encodeTag.
func (e *Engine) Restore(st *EngineState, buildOp func(tag any) *Op) {
	if len(st.ranks) != len(e.Ranks) {
		panic("nda: restore onto an engine with different channel count")
	}
	for ch, row := range e.Ranks {
		if len(st.ranks[ch]) != len(row) {
			panic("nda: restore onto an engine with different rank count")
		}
		for ri, n := range row {
			fs := &st.ranks[ch][ri]
			f := &n.fsm
			f.ops = f.ops[:0]
			for _, os := range fs.ops {
				op := buildOp(os.tag)
				// Replay the deterministic streams to the recorded
				// position: fetched successful reads reproduce the
				// round-robin operand walk, emitted writes the result
				// cursor. The trailing exhaustion probe (if any) is not
				// replayed — once the flag is set the iterators are never
				// touched again.
				for i := 0; i < os.fetched; i++ {
					if _, ok := op.nextRead(); !ok {
						panic("nda: restore read replay ran dry")
					}
				}
				for i := 0; i < os.emitted; i++ {
					if _, ok := op.Writes(); !ok {
						panic("nda: restore write replay ran dry")
					}
				}
				op.emitted = os.emitted
				op.exhausted = os.exhausted
				op.pendingWr = os.pendingWr
				op.pushed, op.hasPushed = os.pushed, os.hasPushed
				f.ops = append(f.ops, op)
			}
			for f.wb.Len() > 0 {
				f.wb.Pop()
			}
			for _, ws := range fs.wb {
				f.wb.Push(wbEntry{addr: ws.addr, owner: f.ops[ws.owner]})
			}
			f.draining, f.readsRun = fs.draining, fs.readsRun
			if f.coin != nil {
				f.coin.ReplayTo(fs.rngDraws)
			}
			f.stats = fs.stats
			n.sleepStale = true
		}
	}
}
