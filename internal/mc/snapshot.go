package mc

import (
	"chopim/internal/dram"
	"chopim/internal/stats"
)

// reqState is one serialized queue entry. Done closures are not
// serialized; restore rebuilds them through the caller's resolver from
// (write, addr, tag) — a host read belongs to exactly one pending LLC
// miss, and a tagged write is an NDA launch packet.
type reqState struct {
	addr    uint64
	daddr   dram.Addr
	write   bool
	arrive  int64
	seq     int64
	tag     uint64
	hasDone bool
}

func reqStateOf(r *Request) reqState {
	return reqState{
		addr: r.Addr, daddr: r.DAddr, write: r.Write, arrive: r.Arrive,
		seq: r.seq, tag: r.Tag, hasDone: r.Done != nil,
	}
}

// ControllerState is an opaque deep copy of a Controller's mutable
// state: both transaction queues in age order, the overflow ring,
// drain/sequence/version scalars, statistics, and the idle histograms.
// The scheduling caches (calendar, bank entries, fused horizon hint)
// are NOT serialized: they only control which cycles may be skipped,
// every skip is individually proven a no-op, and a restored queue
// rebuilds them conservatively (every bank parked ready by its push),
// so the restored controller makes decision-identical choices.
type ControllerState struct {
	rq, wq   []reqState
	overflow []reqState

	drain       bool
	seqGen      int64
	ver, qver   uint64
	issuedRank  int
	issuedIsCol bool
	cross       bool

	idleHists []stats.IdleHist

	readsIssued, writesIssued int64
	actsIssued, presIssued    int64
	readLatencySum            int64
	drains, refreshes         int64
	nextRefresh               int64
}

// Snapshot captures the controller's full mutable state. It must be
// taken between ticks (with any completion sink drained).
func (c *Controller) Snapshot() *ControllerState {
	st := &ControllerState{
		drain: c.drain, seqGen: c.seqGen, ver: c.ver, qver: c.qver,
		issuedRank: c.issuedRank, issuedIsCol: c.issuedIsCol, cross: c.cross,
		idleHists:   append([]stats.IdleHist(nil), c.IdleHists...),
		readsIssued: c.ReadsIssued, writesIssued: c.WritesIssued,
		actsIssued: c.ActsIssued, presIssued: c.PresIssued,
		readLatencySum: c.ReadLatencySum,
		drains:         c.Drains, refreshes: c.Refreshes, nextRefresh: c.nextRefresh,
	}
	for r := c.rq.head; r != nil; r = r.qnext {
		st.rq = append(st.rq, reqStateOf(r))
	}
	for r := c.wq.head; r != nil; r = r.qnext {
		st.wq = append(st.wq, reqStateOf(r))
	}
	for i := 0; i < c.overflow.Len(); i++ {
		st.overflow = append(st.overflow, reqStateOf(c.overflow.At(i)))
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
	// (re-init reallocates the bucket/calendar arrays; restore is not a
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
	c.rq.init(c.mem.Geom.Channels*c.mem.Geom.Ranks, c.bpr)
	c.wq.init(c.mem.Geom.Channels*c.mem.Geom.Ranks, c.bpr)

	fill := func(q *reqQueue, reqs []reqState) {
		for i := range reqs {
			s := &reqs[i]
			var done func(int64)
			if s.hasDone && resolve != nil {
				done = resolve(s.write, s.addr, s.tag)
			}
			r := c.alloc(s.addr, s.daddr, s.write, s.arrive, done)
			r.seq = s.seq
			r.Tag = s.tag
			q.push(r)
		}
	}
	fill(&c.rq, st.rq)
	fill(&c.wq, st.wq)
	for i := range st.overflow {
		s := &st.overflow[i]
		var done func(int64)
		if s.hasDone && resolve != nil {
			done = resolve(s.write, s.addr, s.tag)
		}
		r := c.alloc(s.addr, s.daddr, s.write, s.arrive, done)
		r.seq = s.seq
		r.Tag = s.tag
		c.overflow.Push(r)
	}

	c.drain, c.seqGen, c.ver, c.qver = st.drain, st.seqGen, st.ver, st.qver
	c.issuedRank, c.issuedIsCol, c.cross = st.issuedRank, st.issuedIsCol, st.cross
	copy(c.IdleHists, st.idleHists)
	c.ReadsIssued, c.WritesIssued = st.readsIssued, st.writesIssued
	c.ActsIssued, c.PresIssued = st.actsIssued, st.presIssued
	c.ReadLatencySum = st.readLatencySum
	c.Drains, c.Refreshes, c.nextRefresh = st.drains, st.refreshes, st.nextRefresh
	c.hintValid = false // horizons re-derive from the rebuilt calendar
}
