package mc

import (
	"chopim/internal/dram"
	"chopim/internal/stats"
)

// reqState is one serialized queue entry. Done closures are not
// serialized; restore rebuilds them through the caller's resolver from
// the durable identity (write, addr, tag) — a host read belongs to
// exactly one pending LLC miss, and a tagged write is an NDA launch
// packet.
type reqState struct {
	Addr    uint64
	DAddr   dram.Addr
	Write   bool
	Arrive  int64
	Seq     int64
	Tag     uint64
	HasDone bool
}

func reqStateOf(r *Request) reqState {
	return reqState{
		Addr: r.Addr, DAddr: r.DAddr, Write: r.Write, Arrive: r.Arrive,
		Seq: r.seq, Tag: r.Tag, HasDone: r.Done != nil,
	}
}

// ControllerState is a deep copy of a Controller's mutable state: both
// transaction queues in age order, the overflow ring, drain and
// sequence scalars, statistics, and the idle histograms. Its exported
// fields are also the durable checkpoint encoding. The scheduling
// caches (lazy bank keys, bank entries, the wake memo and the ver
// counter that keys it) are NOT serialized: they only control which
// banks a scan examines and which cycles may be skipped, every skip is
// individually proven a no-op, and a restored queue rebuilds them
// conservatively (every bank keyed -1 by its push), so the restored
// controller makes decision-identical choices.
type ControllerState struct {
	RQ, WQ   []reqState
	Overflow []reqState

	Drain      bool
	SeqGen     int64
	IssuedRank int

	IdleHists []stats.IdleHist

	ReadsIssued, WritesIssued int64
	ActsIssued, PresIssued    int64
	ReadLatencySum            int64
	Drains                    int64
}

// Snapshot captures the controller's full mutable state. It must be
// taken between ticks (with any completion sink drained).
func (c *Controller) Snapshot() *ControllerState {
	st := &ControllerState{
		// Non-nil even when empty: the durable encoding writes [] here.
		RQ:       make([]reqState, 0, c.rq.n),
		WQ:       make([]reqState, 0, c.wq.n),
		Overflow: make([]reqState, 0, c.overflow.Len()),

		Drain: c.drain, SeqGen: c.seqGen,
		IssuedRank:  c.issuedRank,
		IdleHists:   append([]stats.IdleHist(nil), c.IdleHists...),
		ReadsIssued: c.ReadsIssued, WritesIssued: c.WritesIssued,
		ActsIssued: c.ActsIssued, PresIssued: c.PresIssued,
		ReadLatencySum: c.ReadLatencySum,
		Drains:         c.Drains,
	}
	for r := c.rq.head; r != nil; r = r.qnext {
		st.RQ = append(st.RQ, reqStateOf(r))
	}
	for r := c.wq.head; r != nil; r = r.qnext {
		st.WQ = append(st.WQ, reqStateOf(r))
	}
	for i := 0; i < c.overflow.Len(); i++ {
		st.Overflow = append(st.Overflow, reqStateOf(c.overflow.At(i)))
	}
	return st
}

// Restore overwrites the controller's state with the snapshot. The
// controller must have been built with the same config and geometry.
// resolve maps a request that had a Done closure back to one: reads
// resolve through the cache hierarchy's pending-miss table, tagged
// writes through the NDA runtime's launch registry (the sim package
// wires both). Requests whose snapshot recorded no Done get nil.
func (c *Controller) Restore(st *ControllerState, resolve func(write bool, addr uint64, tag uint64) func(int64)) {
	// Release any live requests, then rebuild the queues from scratch
	// (re-init reallocates the bucket and key arrays; restore is not a
	// steady-state path).
	for r := c.rq.head; r != nil; {
		next := r.qnext
		c.release(r)
		r = next
	}
	for r := c.wq.head; r != nil; {
		next := r.qnext
		c.release(r)
		r = next
	}
	for c.overflow.Len() > 0 {
		c.release(c.overflow.Pop())
	}
	c.rq = reqQueue{}
	c.wq = reqQueue{}
	c.rq.init(c.mem.Geom.Ranks)
	c.wq.init(c.mem.Geom.Ranks)

	build := func(s *reqState) *Request {
		var done func(int64)
		if s.HasDone && resolve != nil {
			done = resolve(s.Write, s.Addr, s.Tag)
		}
		r := c.alloc(s.Addr, s.DAddr, s.Write, s.Arrive, done)
		r.seq = s.Seq
		r.Tag = s.Tag
		return r
	}
	for i := range st.RQ {
		c.rq.push(build(&st.RQ[i]))
	}
	for i := range st.WQ {
		c.wq.push(build(&st.WQ[i]))
	}
	for i := range st.Overflow {
		c.overflow.Push(build(&st.Overflow[i]))
	}

	c.drain, c.seqGen = st.Drain, st.SeqGen
	c.issuedRank = st.IssuedRank
	copy(c.IdleHists, st.IdleHists)
	c.ReadsIssued, c.WritesIssued = st.ReadsIssued, st.WritesIssued
	c.ActsIssued, c.PresIssued = st.ActsIssued, st.PresIssued
	c.ReadLatencySum = st.ReadLatencySum
	c.Drains = st.Drains
	c.hintValid = false // the memo re-derives from the rebuilt keys
}
