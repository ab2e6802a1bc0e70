package ndart

import (
	"sort"

	"chopim/internal/nda"
	"chopim/internal/osmem"
)

// SnapEncoder collects the transitive closure of runtime objects an
// in-flight checkpoint references — vectors, handles, and op blueprints
// — deduplicated by pointer into stable table indices. The NDA engine's
// snapshot walk feeds it through EncodeTag; Snapshot then adds the
// pending launch packets and serializes the tables.
type SnapEncoder struct {
	vecIdx map[*Vector]int
	vecs   []*Vector
	hIdx   map[*Handle]int
	hs     []*Handle
	bpIdx  map[*opBP]int
	bps    []*opBP
}

// NewSnapshotEncoder starts a snapshot of this runtime's object graph.
func (rt *Runtime) NewSnapshotEncoder() *SnapEncoder {
	return &SnapEncoder{
		vecIdx: make(map[*Vector]int),
		hIdx:   make(map[*Handle]int),
		bpIdx:  make(map[*opBP]int),
	}
}

// EncodeTag is the nda engine's tag encoder: it registers an op's
// blueprint (and transitively its vectors and handle) and returns the
// blueprint's table index.
func (e *SnapEncoder) EncodeTag(tag any) int { return e.bp(tag.(*opBP)) }

func (e *SnapEncoder) bp(bp *opBP) int {
	if i, ok := e.bpIdx[bp]; ok {
		return i
	}
	for _, v := range bp.reads {
		e.vec(v)
	}
	e.vec(bp.write)
	e.handle(bp.h)
	i := len(e.bps)
	e.bpIdx[bp] = i
	e.bps = append(e.bps, bp)
	return i
}

func (e *SnapEncoder) vec(v *Vector) int {
	if v == nil {
		return -1
	}
	if i, ok := e.vecIdx[v]; ok {
		return i
	}
	i := len(e.vecs)
	e.vecIdx[v] = i
	e.vecs = append(e.vecs, v)
	return i
}

// RegisterHandle adds a handle (and its children) to the encoder's
// table and returns its stable index. Drivers call it for root join
// handles they hold across a checkpoint: a root may not be reachable
// from any in-flight op's blueprint walk, and the returned index is its
// name in the restored runtime (RestoredHandleAt).
// Register roots before Snapshot finalizes the tables.
func (e *SnapEncoder) RegisterHandle(h *Handle) int { return e.handle(h) }

func (e *SnapEncoder) handle(h *Handle) int {
	if i, ok := e.hIdx[h]; ok {
		return i
	}
	i := len(e.hs)
	e.hIdx[h] = i
	e.hs = append(e.hs, h)
	for _, c := range h.children {
		e.handle(c)
	}
	return i
}

// vecState rebuilds a vector from scratch: the layout is a pure
// function of (base, bytes) under the runtime's fixed address mapping.
type vecState struct {
	Base      uint64
	N         int
	Bytes     uint64
	Placement Placement
	Color     osmem.Color
}

type handleState struct {
	Pending  int
	DoneAt   int64
	Children []int
}

type bpState struct {
	Kind    nda.OpKind
	Reads   []int
	Write   int // -1 when none
	Ch, R   int
	From, N int
	Total   int
	H       int
}

// launchState is one in-flight control-register write's payload; ID
// matches the tagged request sitting in a controller queue.
type launchState struct {
	ID    uint64
	Ch, R int
	BPs   []int
}

// RuntimeState is a deep copy of the runtime's snapshot-visible state.
// Vectors, handles, and blueprints are serialized as index tables; live
// ops and queued launch packets reference into them. The tables carry
// no pointers, so the exported fields are also the durable checkpoint
// encoding, and a driver recovers a handle by its table index
// (RestoredHandleAt).
type RuntimeState struct {
	Vecs      []vecState
	Handles   []handleState
	BPs       []bpState
	Launches  []launchState
	LaunchID  uint64
	Color     osmem.Color
	ColorSet  bool
	NLaunches int64
}

// Snapshot finalizes the encoder (whose EncodeTag the engine snapshot
// already ran) into a serialized runtime state.
func (rt *Runtime) Snapshot(enc *SnapEncoder) *RuntimeState {
	st := &RuntimeState{
		LaunchID: rt.launchID, Color: rt.color, ColorSet: rt.colorSet,
		NLaunches: rt.Launches,
	}
	ids := make([]uint64, 0, len(rt.pendingLaunches))
	for id := range rt.pendingLaunches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := rt.pendingLaunches[id]
		ls := launchState{ID: id, Ch: rec.ch, R: rec.r}
		for _, bp := range rec.bps {
			ls.BPs = append(ls.BPs, enc.bp(bp))
		}
		st.Launches = append(st.Launches, ls)
	}
	for _, v := range enc.vecs {
		st.Vecs = append(st.Vecs, vecState{
			Base: v.base, N: v.n, Bytes: v.bytes,
			Placement: v.placement, Color: v.color,
		})
	}
	for _, h := range enc.hs {
		hs := handleState{Pending: h.pending, DoneAt: h.doneAt}
		for _, c := range h.children {
			hs.Children = append(hs.Children, enc.hIdx[c])
		}
		st.Handles = append(st.Handles, hs)
	}
	for _, bp := range enc.bps {
		bs := bpState{
			Kind: bp.kind, Write: -1, Ch: bp.ch, R: bp.r,
			From: bp.from, N: bp.n, Total: bp.total, H: enc.hIdx[bp.h],
		}
		for _, v := range bp.reads {
			bs.Reads = append(bs.Reads, enc.vecIdx[v])
		}
		if bp.write != nil {
			bs.Write = enc.vecIdx[bp.write]
		}
		st.BPs = append(st.BPs, bs)
	}
	return st
}

// Restore overwrites the runtime's snapshot-visible state and returns
// the op decoder for the NDA engine's Restore. The runtime must be
// freshly built over an OS whose allocator state was restored first
// (the vectors' memory must already be allocated there).
func (rt *Runtime) Restore(st *RuntimeState) func(tag int) *nda.Op {
	vecs := make([]*Vector, len(st.Vecs))
	for i, vs := range st.Vecs {
		v := &Vector{
			rt: rt, base: vs.Base, n: vs.N, bytes: vs.Bytes,
			placement: vs.Placement, color: vs.Color,
		}
		v.indexBlocks()
		vecs[i] = v
	}
	hs := make([]*Handle, len(st.Handles))
	for i := range st.Handles {
		hs[i] = &Handle{}
	}
	for i := range st.Handles {
		s := &st.Handles[i]
		hs[i].pending, hs[i].doneAt = s.Pending, s.DoneAt
		for _, c := range s.Children {
			hs[i].children = append(hs[i].children, hs[c])
		}
	}
	bps := make([]*opBP, len(st.BPs))
	for i := range st.BPs {
		bs := &st.BPs[i]
		bp := &opBP{
			kind: bs.Kind, ch: bs.Ch, r: bs.R,
			from: bs.From, n: bs.N, total: bs.Total, h: hs[bs.H],
		}
		for _, vi := range bs.Reads {
			bp.reads = append(bp.reads, vecs[vi])
		}
		if bs.Write >= 0 {
			bp.write = vecs[bs.Write]
		}
		bps[i] = bp
	}
	rt.pendingLaunches = make(map[uint64]*launchRec, len(st.Launches))
	for _, ls := range st.Launches {
		rec := &launchRec{ch: ls.Ch, r: ls.R}
		for _, bi := range ls.BPs {
			rec.bps = append(rec.bps, bps[bi])
		}
		rt.pendingLaunches[ls.ID] = rec
	}
	rt.launchID = st.LaunchID
	rt.color, rt.colorSet = st.Color, st.ColorSet
	rt.Launches = st.NLaunches
	rt.restored = hs
	return func(tag int) *nda.Op { return rt.buildOp(bps[tag]) }
}

// RestoredHandleAt returns the rebuilt handle at encoder-table index i
// after a Restore, or nil when out of range. Roots registered with
// RegisterHandle are recovered this way.
func (rt *Runtime) RestoredHandleAt(i int) *Handle {
	if i < 0 || i >= len(rt.restored) {
		return nil
	}
	return rt.restored[i]
}
