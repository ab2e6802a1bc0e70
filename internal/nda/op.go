// Package nda implements the near-data accelerator hardware: per-rank
// processing-element clusters with the Fig 9 batch pipeline, per-rank NDA
// memory controllers that opportunistically interleave with host traffic,
// the write-throttling policies (stochastic issue and next-rank
// prediction), and the replicated finite-state machines that let a
// host-side controller track NDA activity without signaling (Section
// III-D). An op's operands are Streams, plain values that hold what the
// launch packet's operand descriptors name (Section V), so the replica
// predicts each access from a copy of the same descriptors.
package nda

import (
	"fmt"

	"chopim/internal/dram"
)

// OpKind enumerates the paper's Table I NDA operations.
type OpKind int

// Table I operations.
const (
	OpAXPBY    OpKind = iota // z = a*x + b*y
	OpAXPBYPCZ               // w = a*x + b*y + c*z
	OpAXPY                   // y = a*y + x
	OpCOPY                   // y = x
	OpDOT                    // c = x . y
	OpNRM2                   // c = sqrt(x . x)
	OpSCAL                   // x = a*x
	OpXMY                    // z = x (elementwise) y
	OpGEMV                   // y = A x
)

// String returns the BLAS-style mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpAXPBY:
		return "axpby"
	case OpAXPBYPCZ:
		return "axpbypcz"
	case OpAXPY:
		return "axpy"
	case OpCOPY:
		return "copy"
	case OpDOT:
		return "dot"
	case OpNRM2:
		return "nrm2"
	case OpSCAL:
		return "scal"
	case OpXMY:
		return "xmy"
	case OpGEMV:
		return "gemv"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// ReadOperands returns how many vectors the op streams per batch.
func (k OpKind) ReadOperands() int {
	switch k {
	case OpNRM2, OpSCAL, OpCOPY, OpGEMV:
		return 1
	case OpAXPY, OpDOT, OpAXPBY, OpXMY:
		return 2
	case OpAXPBYPCZ:
		return 3
	}
	return 1
}

// WritesResult reports whether the op writes a result vector back to
// memory (reductions accumulate in the PE scratchpad instead).
func (k OpKind) WritesResult() bool {
	switch k {
	case OpDOT, OpNRM2, OpGEMV:
		// GEMV's result is one element per matrix row; its writeback
		// traffic is negligible and modeled as none.
		return false
	}
	return true
}

// Run is the N rank-local block numbers (dram.Addr.Block) Start,
// Start+1, ...; First is the index of its first block in the operand's
// share of the rank.
type Run struct {
	Start, N, First uint32
}

// Stream is one operand of an instruction on one rank, as its launch
// packet's descriptor names it: the rank, the share's runs from the one
// holding the next block on (aliased from the operand's layout, never
// written), the next block number and the blocks left. It is a plain
// value: copying it forks an independent cursor.
type Stream struct {
	Channel, Rank int
	Runs          []Run
	Next          uint32
	Left          int
}

// Peek returns the stream's next address without consuming it; ok=false
// when the stream is dry.
func (s *Stream) Peek() (a dram.Addr, ok bool) {
	if s.Left <= 0 {
		return dram.Addr{}, false
	}
	return dram.BlockAddr(s.Channel, s.Rank, s.Next), true
}

// Pop returns the stream's next address and consumes it; ok=false when
// the stream is dry.
func (s *Stream) Pop() (a dram.Addr, ok bool) {
	a, ok = s.Peek()
	if !ok {
		return a, false
	}
	s.Left--
	s.Next++
	if s.Left > 0 && s.Next == s.Runs[0].Start+s.Runs[0].N {
		s.Runs = s.Runs[1:]
		s.Next = s.Runs[0].Start
	}
	return a, true
}

// BatchBlocks is the number of 64-byte blocks in one PE batch: the 1 KB
// per-chip buffer of Fig 9 spans 16 blocks across an 8-chip rank... per
// chip 1KB = 128 x 8B bursts; at rank level a 1KB batch per chip equals
// 16 cache blocks of the interleaved vector share handled per pipeline
// turn.
const BatchBlocks = 16

// Op is one primitive NDA operation executing on a single rank's PEs.
// The read streams are drained round-robin in batches of BatchBlocks;
// after each full batch of reads, BatchBlocks result blocks enter the
// write buffer (if the op writes). A reduction's Writes stream is empty.
type Op struct {
	Kind   OpKind
	Reads  []Stream
	Writes Stream
	// Guard, when non-nil, is the NDA-side bounds check (Section II,
	// Address Translation): the host performs translation, the NDA only
	// verifies each access stays inside the operand regions named in
	// the launch packet. Violations abort the op via panic — hardware
	// would raise a protection fault.
	Guard func(a dram.Addr) bool
	// Done fires at the DRAM cycle when the op fully completes
	// (including write-buffer drain of its results).
	Done func(cycle int64)

	// Tag carries the launcher's blueprint for this op (the ndart
	// runtime attaches its build recipe). Checkpointing replays it: the
	// streams are pure functions of the blueprint, so (Tag, fetched,
	// emitted) reconstructs the op's exact internal state on restore.
	Tag any

	// progress
	operand   int // which read stream is active
	inOperand int // blocks taken from the active stream this batch
	fetched   int // reads taken so far
	emitted   int // result addresses moved to the write buffer so far
	exhausted bool
	pendingWr int // writes of this op still in the write buffer
}

// NewOp builds an operation; reads must have one stream per
// Kind.ReadOperands(), and writes must be empty unless the kind writes.
func NewOp(kind OpKind, reads []Stream, writes Stream, done func(int64)) *Op {
	if len(reads) != kind.ReadOperands() {
		panic(fmt.Sprintf("nda: %v expects %d read operands, got %d", kind, kind.ReadOperands(), len(reads)))
	}
	if !kind.WritesResult() && writes.Left > 0 {
		panic(fmt.Sprintf("nda: %v writes no result but got a %d-block result stream", kind, writes.Left))
	}
	return &Op{Kind: kind, Reads: reads, Writes: writes, Done: done}
}

// PeekRead returns the next read address and the index of its operand,
// without consuming it: the first non-dry stream from the active one on.
// ok=false means every read stream is dry.
func (o *Op) PeekRead() (a dram.Addr, operand int, ok bool) {
	for i := range o.Reads {
		k := (o.operand + i) % len(o.Reads)
		if a, ok := o.Reads[k].Peek(); ok {
			return a, k, true
		}
	}
	return dram.Addr{}, 0, false
}

// takeRead consumes the read PeekRead returned, whose column command
// issued, and advances the round-robin batch schedule: dry operands
// before it are skipped, and a full batch moves to the next operand.
func (o *Op) takeRead(operand int) {
	if operand != o.operand {
		o.inOperand = 0
		o.operand = operand
	}
	o.Reads[operand].Pop()
	o.fetched++
	o.inOperand++
	if o.inOperand >= BatchBlocks {
		o.inOperand = 0
		o.operand = (o.operand + 1) % len(o.Reads)
	}
}

// batchReads returns reads per full batch across all operands.
func (o *Op) batchReads() int { return len(o.Reads) * BatchBlocks }
