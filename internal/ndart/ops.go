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
	return rt.Launch(AxpySpec(y, x))
}

// Axpby computes z = a*x + b*y.
func (rt *Runtime) Axpby(z, x, y *Vector) (*Handle, error) {
	return rt.Launch(AxpbySpec(z, x, y))
}

// Axpbypcz computes w = a*x + b*y + c*z.
func (rt *Runtime) Axpbypcz(w, x, y, z *Vector) (*Handle, error) {
	return rt.Launch(AxpbypczSpec(w, x, y, z))
}

// Copy computes y = x.
func (rt *Runtime) Copy(y, x *Vector) (*Handle, error) {
	return rt.Launch(CopySpec(y, x))
}

// Dot computes x . y into per-PE scratchpads (host reduces).
func (rt *Runtime) Dot(x, y *Vector) (*Handle, error) {
	return rt.Launch(DotSpec(x, y))
}

// Nrm2 computes sqrt(x . x) into per-PE scratchpads.
func (rt *Runtime) Nrm2(x *Vector) (*Handle, error) {
	return rt.Launch(Nrm2Spec(x))
}

// Scal computes x = a*x.
func (rt *Runtime) Scal(x *Vector) (*Handle, error) {
	return rt.Launch(ScalSpec(x))
}

// Xmy computes z = x (elementwise*) y.
func (rt *Runtime) Xmy(z, x, y *Vector) (*Handle, error) {
	return rt.Launch(XmySpec(z, x, y))
}

// Gemv computes y = A*x, streaming A from memory with x resident in the
// PE scratchpads; y writeback is negligible and not modeled.
func (rt *Runtime) Gemv(y *Vector, a *Matrix, x *Vector) (*Handle, error) {
	return rt.Launch(GemvSpec(a))
}

// Spec constructors, one per Table I operation: the methods above
// launch them, and MacroFor builds its iterations from them.

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

// GemvSpec builds the y = A*x spec: only the matrix streams (see Gemv).
func GemvSpec(a *Matrix) Spec {
	return Spec{Kind: nda.OpGEMV, Reads: []*Vector{&a.Vector}}
}

// Launch splits one API call into per-rank primitive NDA instructions of
// at most MaxBlocksPerInstr blocks per operand, modeling one
// control-register launch packet per instruction (Section V). Operands
// must share one color: the colored layout keeps them rank-aligned, so
// the runtime never copies data.
func (rt *Runtime) Launch(spec Spec) (*Handle, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if err := aligned(spec); err != nil {
		return nil, err
	}
	h := &Handle{}
	g := rt.geom
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			// A rank without a control address holds an empty share,
			// for which rankOpBPs yields no instructions.
			ctrl, _ := spec.Reads[0].controlAddr(ch, r)
			for _, bp := range rt.rankOpBPs(spec, ch, r, h) {
				rt.sendLaunch(ch, r, ctrl, []*opBP{bp})
			}
		}
	}
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
		if err := aligned(spec); err != nil {
			return nil, err
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

// aligned returns an error if the operands do not all share one color.
func aligned(spec Spec) error {
	c0 := spec.Reads[0].color
	for _, v := range spec.Reads[1:] {
		if v.color != c0 {
			return fmt.Errorf("ndart: %v operands misaligned (colors %#x vs %#x)", spec.Kind, c0, v.color)
		}
	}
	if spec.Write != nil && spec.Write.color != c0 {
		return fmt.Errorf("ndart: %v result misaligned (colors %#x vs %#x)", spec.Kind, c0, spec.Write.color)
	}
	return nil
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
		// Exact read count across operands (a rank's shares of two
		// operands need not be equal), enabling side-effect-free
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
		rt.eng.Launch(bp.ch, bp.r, func() *nda.Op { return rt.buildOp(bp) })
	}
}

// LaunchDone returns the completion callback for the control write
// tagged id. Controller-queue restore uses it to reattach restored
// launch packets to the registry.
func (rt *Runtime) LaunchDone(id uint64) func(int64) {
	return func(int64) { rt.finishLaunch(id) }
}
