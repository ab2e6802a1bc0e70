package ndart

import (
	"fmt"

	"chopim/internal/dram"
	"chopim/internal/nda"
)

// Spec describes one NDA API call before splitting into per-rank
// primitive operations.
type Spec struct {
	Kind  nda.OpKind
	Reads []*Vector
	Write *Vector // nil for reductions
}

// validate checks operand counts, lengths, and bounds.
func (s Spec) validate() error {
	if len(s.Reads) != s.Kind.ReadOperands() {
		return fmt.Errorf("ndart: %v expects %d read operands, got %d", s.Kind, s.Kind.ReadOperands(), len(s.Reads))
	}
	if s.Kind.WritesResult() != (s.Write != nil) {
		return fmt.Errorf("ndart: %v result operand mismatch", s.Kind)
	}
	// GEMV's single streamed operand is the matrix; the small x vector
	// is scratchpad-resident and not length-matched.
	if s.Kind == nda.OpGEMV {
		return nil
	}
	n := s.Reads[0].Len()
	for _, v := range s.Reads[1:] {
		if v.Len() != n {
			return fmt.Errorf("ndart: operand length mismatch %d vs %d", v.Len(), n)
		}
	}
	if s.Write != nil && s.Write.Len() != n && s.Write.placement != Private {
		return fmt.Errorf("ndart: result length %d != operand length %d", s.Write.Len(), n)
	}
	return nil
}

// Blocking and asynchronous single-op API (Table I). Each returns a
// Handle; the simulator's Await drives it to completion. Scalars (alpha,
// beta...) do not affect traffic and are omitted.

// Axpy computes y += a*x.
func (rt *Runtime) Axpy(y, x *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpAXPY, Reads: []*Vector{x, y}, Write: y})
}

// Axpby computes z = a*x + b*y.
func (rt *Runtime) Axpby(z, x, y *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpAXPBY, Reads: []*Vector{x, y}, Write: z})
}

// Axpbypcz computes w = a*x + b*y + c*z.
func (rt *Runtime) Axpbypcz(w, x, y, z *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpAXPBYPCZ, Reads: []*Vector{x, y, z}, Write: w})
}

// Copy computes y = x.
func (rt *Runtime) Copy(y, x *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpCOPY, Reads: []*Vector{x}, Write: y})
}

// Dot computes x . y into per-PE scratchpads (host reduces).
func (rt *Runtime) Dot(x, y *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpDOT, Reads: []*Vector{x, y}})
}

// Nrm2 computes sqrt(x . x) into per-PE scratchpads.
func (rt *Runtime) Nrm2(x *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpNRM2, Reads: []*Vector{x}})
}

// Scal computes x = a*x.
func (rt *Runtime) Scal(x *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpSCAL, Reads: []*Vector{x}, Write: x})
}

// Xmy computes z = x (elementwise*) y.
func (rt *Runtime) Xmy(z, x, y *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpXMY, Reads: []*Vector{x, y}, Write: z})
}

// Gemv computes y = A*x, streaming A from memory with x resident in the
// PE scratchpads; y writeback is negligible and not modeled.
func (rt *Runtime) Gemv(y *Vector, a *Matrix, x *Vector) (*Handle, error) {
	return rt.Launch(Spec{Kind: nda.OpGEMV, Reads: []*Vector{&a.Vector}})
}

// Spec constructors for use with MacroFor.

// AxpySpec builds the y += a*x spec.
func AxpySpec(y, x *Vector) Spec {
	return Spec{Kind: nda.OpAXPY, Reads: []*Vector{x, y}, Write: y}
}

// CopySpec builds the y = x spec.
func CopySpec(y, x *Vector) Spec {
	return Spec{Kind: nda.OpCOPY, Reads: []*Vector{x}, Write: y}
}

// DotSpec builds the x . y spec.
func DotSpec(x, y *Vector) Spec {
	return Spec{Kind: nda.OpDOT, Reads: []*Vector{x, y}}
}

// Nrm2Spec builds the ||x|| spec.
func Nrm2Spec(x *Vector) Spec {
	return Spec{Kind: nda.OpNRM2, Reads: []*Vector{x}}
}

// AxpbySpec builds the z = a*x + b*y spec.
func AxpbySpec(z, x, y *Vector) Spec {
	return Spec{Kind: nda.OpAXPBY, Reads: []*Vector{x, y}, Write: z}
}

// AxpbypczSpec builds the w = a*x + b*y + c*z spec.
func AxpbypczSpec(w, x, y, z *Vector) Spec {
	return Spec{Kind: nda.OpAXPBYPCZ, Reads: []*Vector{x, y, z}, Write: w}
}

// ScalSpec builds the x = a*x spec.
func ScalSpec(x *Vector) Spec {
	return Spec{Kind: nda.OpSCAL, Reads: []*Vector{x}, Write: x}
}

// XmySpec builds the z = x .* y spec.
func XmySpec(z, x, y *Vector) Spec {
	return Spec{Kind: nda.OpXMY, Reads: []*Vector{x, y}, Write: z}
}

// Launch splits one API call into per-rank primitive NDA instructions of
// at most MaxBlocksPerInstr blocks per operand, modeling one
// control-register launch packet per instruction (Section V). Operands
// whose colors mismatch are first copied into aligned scratch space by
// the host (the data-copy cost Chopim's layout avoids).
func (rt *Runtime) Launch(spec Spec) (*Handle, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	h := &Handle{}
	spec, copies := rt.alignOperands(spec)
	if copies != nil {
		// Defer the launch until host-mediated copies complete.
		h.pending++ // hold the handle open
		copies.onDone = func() {
			rt.launchAligned(spec, h)
			h.complete(rt.now())
		}
		return h, nil
	}
	rt.launchAligned(spec, h)
	return h, nil
}

// MacroFor is the asynchronous macro operation of Section V
// (parallel_for): count iterations built by build are launched with a
// single control packet per rank, overlapping iterations and hiding
// per-launch load imbalance.
func (rt *Runtime) MacroFor(count int, build func(i int) Spec) (*Handle, error) {
	h := &Handle{}
	g := rt.geom
	work := make([][][]*opBP, g.Channels)
	for ch := range work {
		work[ch] = make([][]*opBP, g.Ranks)
	}
	var ctrl dram.Addr
	ctrlOK := false
	for i := 0; i < count; i++ {
		spec := build(i)
		if err := spec.validate(); err != nil {
			return nil, err
		}
		if c, ok := rt.alignedOrErr(spec); !ok {
			return nil, c
		}
		for ch := 0; ch < g.Channels; ch++ {
			for r := 0; r < g.Ranks; r++ {
				work[ch][r] = append(work[ch][r], rt.rankOpBPs(spec, ch, r, h)...)
			}
		}
		if !ctrlOK {
			if a, ok := spec.Reads[0].controlAddr(0, 0); ok {
				ctrl, ctrlOK = a, true
			}
		}
	}
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			if len(work[ch][r]) == 0 {
				continue
			}
			rt.sendLaunch(ch, r, ctrl, work[ch][r])
		}
	}
	return h, nil
}

// alignedOrErr returns an error if operands are misaligned (MacroFor does
// not auto-copy).
func (rt *Runtime) alignedOrErr(spec Spec) (error, bool) {
	c0 := spec.Reads[0].color
	for _, v := range spec.Reads[1:] {
		if v.color != c0 {
			return fmt.Errorf("ndart: macro op operands misaligned (colors %#x vs %#x)", c0, v.color), false
		}
	}
	if spec.Write != nil && spec.Write.color != c0 {
		return fmt.Errorf("ndart: macro op result misaligned"), false
	}
	return nil, true
}

// alignOperands checks operand colors; mismatched read operands are
// copied into runtime-colored scratch vectors (counted in rt.Copies).
// It returns the possibly-rewritten spec and a pending copy job set.
func (rt *Runtime) alignOperands(spec Spec) (Spec, *copyGroup) {
	c0 := spec.Reads[0].color
	if spec.Write != nil && spec.Write.color != c0 {
		// Result misalignment also forces a copy-out; model the
		// dominant cost: allocate aligned scratch and write there.
		if w, err := rt.NewVector(spec.Write.Len(), spec.Write.placement); err == nil {
			spec.Write = w
		}
	}
	var group *copyGroup
	for i, v := range spec.Reads {
		if v.color == c0 {
			continue
		}
		scratch, err := rt.NewVector(v.Len(), v.placement)
		if err != nil {
			continue // out of aligned space: run misaligned (tests only)
		}
		if group == nil {
			group = &copyGroup{}
		}
		rt.Copies++
		group.pending++
		spec.Reads[i] = scratch
		rt.copier.add(&copyJob{
			src: v, dst: scratch,
			done: func() { group.finish() },
		})
	}
	return spec, group
}

// launchAligned fans an aligned spec out to every rank.
func (rt *Runtime) launchAligned(spec Spec, h *Handle) {
	g := rt.geom
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			bps := rt.rankOpBPs(spec, ch, r, h)
			ctrl, ok := spec.Reads[0].controlAddr(ch, r)
			for _, bp := range bps {
				if !ok {
					rt.launchBP(bp)
					continue
				}
				rt.sendLaunch(ch, r, ctrl, []*opBP{bp})
			}
		}
	}
}

// opBP is the blueprint of one primitive NDA instruction: everything
// needed to (re)build its op. Ops carry their blueprint as nda.Op.Tag,
// which is what makes in-flight ops checkpointable — a blueprint plus
// the op's progress counters reconstructs the op exactly, because the
// operand iterators are pure functions of the blueprint.
type opBP struct {
	kind    nda.OpKind
	reads   []*Vector
	write   *Vector // nil for reductions
	ch, r   int
	from, n int
	total   int // exact read count across operands (for PeekRead)
	h       *Handle
}

// buildOp constructs a fresh op from its blueprint (fresh iterators,
// completion wiring included). Every op the engine sees is built here,
// whether launched live or replayed from a checkpoint.
func (rt *Runtime) buildOp(bp *opBP) *nda.Op {
	var reads []nda.Iter
	for _, v := range bp.reads {
		reads = append(reads, v.iterFor(bp.ch, bp.r, bp.from, bp.n))
	}
	var writes nda.Iter
	if bp.write != nil {
		writes = bp.write.iterFor(bp.ch, bp.r, bp.from, bp.n)
	}
	h := bp.h
	op := nda.NewOp(bp.kind, reads, writes, func(cycle int64) { h.complete(cycle) })
	op.TotalReads = bp.total
	op.Tag = bp
	if rt.GuardOps {
		op.Guard = rt.buildGuard(bp)
	}
	return op
}

// launchBP hands one blueprint to the engine.
func (rt *Runtime) launchBP(bp *opBP) {
	rt.eng.Launch(bp.ch, bp.r, func() *nda.Op { return rt.buildOp(bp) })
}

// rankOpBPs splits the rank's share into MaxBlocksPerInstr chunks,
// returning one blueprint per NDA instruction. The handle's pending
// count is incremented here, at API-call time.
func (rt *Runtime) rankOpBPs(spec Spec, ch, r int, h *Handle) []*opBP {
	share := spec.Reads[0].layout.shareLen(ch, r)
	if share == 0 {
		return nil
	}
	chunk := rt.MaxBlocksPerInstr
	if chunk <= 0 {
		chunk = share
	}
	var out []*opBP
	for from := 0; from < share; from += chunk {
		n := chunk
		if from+n > share {
			n = share - from
		}
		h.pending++
		// Exact read count across operands (operand shares can differ
		// in the misaligned fallback), enabling side-effect-free
		// PeekRead during fast-forward.
		total := 0
		for _, v := range spec.Reads {
			c := v.layout.shareLen(ch, r) - from
			if c > n {
				c = n
			}
			if c > 0 {
				total += c
			}
		}
		out = append(out, &opBP{
			kind: spec.Kind, reads: append([]*Vector(nil), spec.Reads...),
			write: spec.Write, ch: ch, r: r, from: from, n: n, total: total, h: h,
		})
	}
	return out
}

// buildGuard returns the NDA-side bounds check for one instruction: the
// block-number intervals the launch packet's operand descriptors cover,
// one per run of each operand's slice. In hardware this is a base/bound
// comparison per operand; an access passes if any interval holds it.
func (rt *Runtime) buildGuard(bp *opBP) func(dram.Addr) bool {
	var spans []blockRun
	for _, v := range bp.reads {
		spans = v.appendSpans(spans, bp.ch, bp.r, bp.from, bp.n)
	}
	if bp.write != nil {
		spans = bp.write.appendSpans(spans, bp.ch, bp.r, bp.from, bp.n)
	}
	c := newBlockCodec(rt.geom)
	return func(a dram.Addr) bool {
		k := c.pack(a)
		for _, s := range spans {
			if k-s.start < s.n {
				return true
			}
		}
		return false
	}
}

// sendLaunch models the control-register write carrying the given
// instructions to rank (ch, r). The payload is parked in the launch
// registry under a fresh tag; the write's completion launches it. The
// tag (not the closure) is what a checkpoint captures.
func (rt *Runtime) sendLaunch(ch, r int, ctrl dram.Addr, bps []*opBP) {
	rt.Launches++
	if !rt.ModelLaunches {
		for _, bp := range bps {
			rt.launchBP(bp)
		}
		return
	}
	ctrl.Channel = ch
	ctrl.Rank = r
	rt.launchID++
	id := rt.launchID
	rt.pendingLaunches[id] = &launchRec{ch: ch, r: r, bps: bps}
	rt.mcs[ch].EnqueueControlTagged(ctrl, rt.now(), id, rt.LaunchDone(id))
}

// finishLaunch delivers a completed launch packet's instructions.
func (rt *Runtime) finishLaunch(id uint64) {
	rec := rt.pendingLaunches[id]
	if rec == nil {
		panic(fmt.Sprintf("ndart: launch packet %d completed twice or never sent", id))
	}
	delete(rt.pendingLaunches, id)
	for _, bp := range rec.bps {
		rt.launchBP(bp)
	}
}

// LaunchDone returns the completion callback for the control write
// tagged id. Controller-queue restore uses it to reattach restored
// launch packets to the registry.
func (rt *Runtime) LaunchDone(id uint64) func(int64) {
	return func(int64) { rt.finishLaunch(id) }
}

// copyGroup joins several copy jobs before a deferred launch.
type copyGroup struct {
	pending int
	onDone  func()
}

func (g *copyGroup) finish() {
	g.pending--
	if g.pending == 0 && g.onDone != nil {
		g.onDone()
	}
}
