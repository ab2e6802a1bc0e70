// Package mc implements the host-side memory controller: one FR-FCFS
// scheduler per channel with separate 32-entry read and write queues,
// watermark-based write draining, and an open-page policy (Table II).
//
// The controller also exposes the coordination hooks Chopim's NDA
// controller needs (Section III): per-cycle host activity per rank, the
// rank targeted by the oldest outstanding read (next-rank prediction),
// and pending-demand checks used to prioritize host row commands.
//
// Scheduling is event-driven: requests are bucketed per (rank, flat
// bank) at enqueue time (see queue.go), and each occupied bank carries
// a lazy key that lower-bounds its earliest-issue cycle (see keys.go),
// so a due tick's linear scan of the keys examines only the banks that
// may be ready instead of re-deriving every occupied bank; the NDA
// coordination hooks are O(1) counter reads. The key scheduler is
// decision-for-decision equivalent to the original full-rescan one; the
// rescan survives as scheduleRef, the oracle for the randomized
// equivalence tests (TestBucketedSchedulerMatchesReference,
// TestCalendarInvalidationMatchesReference).
package mc

import (
	"fmt"

	"chopim/internal/dram"
	"chopim/internal/ring"
	"chopim/internal/stats"
)

// Request is one block-granularity memory transaction.
type Request struct {
	Addr   uint64
	DAddr  dram.Addr
	Write  bool
	Arrive int64
	Done   func(dramDone int64) // nil for writebacks
	// Tag carries a caller-assigned identity for requests whose Done
	// closure must be rebuilt after a checkpoint restore (NDA launch
	// packets; see EnqueueControlTagged). Zero for everything else.
	Tag uint64

	// bankKey is the request's (rank, flat-bank) bucket index —
	// Rank*BanksPerRank + DAddr.GlobalBank — decoded once at enqueue
	// (the scheduler and demand hooks read it every cycle). A
	// controller holds only its own channel's requests (alloc refuses
	// a foreign one), so the channel needs no place in the key.
	bankKey int32
	// seq is the queue-insertion order FR-FCFS ages by. It is assigned
	// when the request enters its scheduling queue — an overflow-buffered
	// write is sequenced at drain-into-queue time, matching the append
	// order of the original slice-based queues.
	seq int64

	qnext, qprev *Request // arrival-ordered queue list; qnext doubles as the free-list link
	bnext, bprev *Request // (rank, bank) bucket list
}

// Table II controller parameters: 32-entry read and write queues, and
// the write-queue occupancies at which a write drain starts and stops.
const (
	readQueueSize  = 32
	writeQueueSize = 32
	drainHigh      = 24
	drainLow       = 8
)

// Controller schedules one channel.
type Controller struct {
	mem     *dram.Mem
	channel int

	rq reqQueue
	wq reqQueue
	// overflow absorbs writebacks beyond the write queue (an unbounded
	// eviction buffer drained into wq as space frees).
	overflow ring.Ring[*Request]
	drain    bool

	free   *Request // request node pool
	seqGen int64

	// Wake memo: the horizon NextEvent serves, a lower bound on the
	// earliest cycle any candidate can issue. A Tick that attempts both
	// queues and issues nothing records the bound its failed scans
	// already computed (sweepHz per queue); NextEvent records the bound
	// it derives itself. Valid while hintVer/hintRowSeq match the live
	// counters, or once it has come due (see NextEvent).
	sweepHz    int64
	hint       int64
	hintValid  bool
	hintVer    uint64
	hintRowSeq uint64

	// refSched selects the original full-rescan FR-FCFS pass (the test
	// oracle); see SetReferenceScheduler.
	refSched bool

	// csink receives every completion callback instead of the
	// controller invoking it at issue time (see NewController). The sim
	// package points it at its completion mailbox, so a fill or launch
	// acknowledgement lands in the commit phase of the same cycle, after
	// every channel's memory phase, rather than mid-way through it.
	csink func(done func(int64), at int64)

	// issuedRank is the rank the host issued a command to this cycle
	// (-1 if none); refreshed each Tick.
	issuedRank int

	// ver counts controller mutations: enqueues, dequeues/issues
	// (column and row commands), and overflow refills. It keys
	// the wake memo (hintVer), which revalidates when it changes. Pure
	// bookkeeping invisible from outside (drain hysteresis flips) does
	// not bump it.
	ver uint64

	// seen/seenGen implement the reference scheduler's per-Tick
	// visited-bank set without per-cycle allocation.
	seen    []int64
	seenGen int64

	// Per-rank idle histograms (Fig 2) and bandwidth accounting.
	IdleHists []stats.IdleHist

	ReadsIssued, WritesIssued int64
	ActsIssued, PresIssued    int64
	ReadLatencySum            int64
	Drains                    int64
}

// NewController builds a controller for the given channel. It takes
// decoded addresses only: the Router is the one place that decodes host
// addresses. sink receives each request completion callback (read
// fills, control-launch acknowledgements) with the DRAM cycle it must
// be invoked with; the caller runs every deferred callback before the
// end of the cycle it was produced in. A harness that wants inline
// completions passes func(done func(int64), at int64) { done(at) }.
func NewController(mem *dram.Mem, channel int, sink func(done func(int64), at int64)) *Controller {
	c := &Controller{
		mem: mem, channel: channel, csink: sink,
		issuedRank: -1,
		seen:       make([]int64, mem.Geom.Ranks*dram.BanksPerRank),
		IdleHists:  make([]stats.IdleHist, mem.Geom.Ranks),
	}
	c.rq.init(mem.Geom.Ranks)
	c.wq.init(mem.Geom.Ranks)
	for i := 0; i < readQueueSize+writeQueueSize; i++ {
		c.free = &Request{qnext: c.free}
	}
	// The overflow buffer is unbounded by design, but its ring is
	// reserved to a generous high-water estimate up front: LLC-thrashing
	// hosts produce dirty-eviction bursts of several hundred writebacks,
	// and a mid-run ring doubling is the kind of late allocation the
	// zero-allocs steady-state gate exists to catch.
	c.overflow.Reserve(32 * writeQueueSize)
	return c
}

// SetReferenceScheduler switches the controller to the original
// full-rescan FR-FCFS implementation. It exists as the oracle for the
// scheduler equivalence tests; the bucketed path is the production one.
func (c *Controller) SetReferenceScheduler(on bool) { c.refSched = on }

// NDAVer returns a version counter over exactly the queue state the NDA
// engine's sleep bounds read for the given rank: the read-queue
// head identity (OldestReadRank's only input) and the rank's per-bank
// bucket-occupancy zero-crossings in both queues (the only transitions
// that can flip a HasDemandFor answer). It is far narrower than ver.
// Row commands move no queue input, and a row command to the NDA's own
// rank already forces the rank to step on that cycle (the issued-rank
// rule of nda.RankNDA.tick); NDA timing checks are
// rank-local (nda=true NextIssue, no channel bus), so a host ACT/PRE
// elsewhere cannot change the taken branch. Queue churn that provably
// cannot change the rank's taken NDA branch — writes queued or drained
// against other ranks' banks, column issues that neither move the
// read-queue head nor empty a bucket of this rank — leaves it unchanged
// too, so the rank's cached sleep bound survives. This is the same
// narrowing the scheduler applies to bank entries, which re-derive
// their candidates only on a bucket change or a row change of their own
// bank, applied to the engine's controller inputs. A sum of monotone
// counters, so equality means none of the covered inputs moved.
// Three counter reads.
func (c *Controller) NDAVer(rank int) uint64 {
	return c.rq.headVer + c.rq.demVer[rank] + c.wq.demVer[rank]
}

// ClearIssued resets the per-cycle issued-command scratch without
// running a Tick. The wake-driven system scheduler calls it on cycles
// where the controller is provably idle, so the NDA coordination hooks
// (HostIssuedRank) observe the same -1 a no-op Tick would have set.
func (c *Controller) ClearIssued() { c.issuedRank = -1 }

// Idle reports whether a Tick would be a no-op beyond ClearIssued: both
// queues and the overflow buffer are empty and the controller is not
// draining. Such a Tick issues nothing, refills nothing, flips no drain
// state, and its only write — a Never horizon hint — is invalidated by
// the enqueue (ver bump) that must precede any later use of the hint.
func (c *Controller) Idle() bool {
	return c.rq.n == 0 && c.wq.n == 0 && c.overflow.Len() == 0 && !c.drain
}

// alloc pops a pooled request node (or grows the pool). It panics on
// an address of another channel: the controller keys its state by
// (rank, bank) alone, and the system router sends each controller only
// its own channel's requests.
func (c *Controller) alloc(addr uint64, daddr dram.Addr, write bool, now int64, done func(int64)) *Request {
	if daddr.Channel != c.channel {
		panic(fmt.Sprintf("mc: channel %d controller given an address of channel %d: %+v", c.channel, daddr.Channel, daddr))
	}
	r := c.free
	if r != nil {
		c.free = r.qnext
		*r = Request{}
	} else {
		r = &Request{}
	}
	r.Addr, r.DAddr, r.Write, r.Arrive, r.Done = addr, daddr, write, now, done
	r.bankKey = int32(daddr.Rank*dram.BanksPerRank + daddr.GlobalBank())
	return r
}

// release returns a retired request node to the pool.
func (c *Controller) release(r *Request) {
	*r = Request{qnext: c.free}
	c.free = r
}

// ReadFull reports whether the read queue is full, so EnqueueRead
// would return false.
func (c *Controller) ReadFull() bool { return c.rq.n >= readQueueSize }

// EnqueueRead adds a read of addr, which decodes to daddr; done fires
// at data-available time. It returns false when the read queue is full.
func (c *Controller) EnqueueRead(addr uint64, daddr dram.Addr, now int64, done func(int64)) bool {
	if c.ReadFull() {
		return false
	}
	r := c.alloc(addr, daddr, false, now, done)
	r.seq = c.seqGen
	c.seqGen++
	c.rq.push(r)
	c.ver++
	return true
}

// EnqueueWrite adds a writeback of addr, which decodes to daddr.
// Overflow beyond the write queue is buffered (never refused) to keep
// eviction handling simple.
func (c *Controller) EnqueueWrite(addr uint64, daddr dram.Addr, now int64) {
	c.pushWrite(c.alloc(addr, daddr, true, now, nil))
}

// EnqueueControlTagged submits an NDA launch packet: a write
// transaction to the rank's control registers that occupies the
// command/data channel like any host write (Section V). done fires when
// the write issues. The caller-assigned identity tag lets checkpoint
// restore rebuild the done closure (launch acknowledgements) for
// in-flight packets.
func (c *Controller) EnqueueControlTagged(daddr dram.Addr, now int64, tag uint64, done func(int64)) {
	r := c.alloc(0, daddr, true, now, done)
	r.Tag = tag
	c.pushWrite(r)
}

// pushWrite routes a write into the write queue or the overflow buffer.
func (c *Controller) pushWrite(r *Request) {
	c.ver++
	if c.wq.n >= writeQueueSize {
		c.overflow.Push(r)
		return
	}
	r.seq = c.seqGen
	c.seqGen++
	c.wq.push(r)
}

// QueueOccupancy returns current read/write queue lengths.
func (c *Controller) QueueOccupancy() (reads, writes int) {
	return c.rq.n, c.wq.n + c.overflow.Len()
}

// HostIssuedRank returns the rank the host issued any command to this
// cycle, or -1. Valid after Tick for the same cycle.
func (c *Controller) HostIssuedRank() int { return c.issuedRank }

// OldestReadRank implements the next-rank predictor input: the rank of
// the oldest outstanding read in this channel's transaction queue.
func (c *Controller) OldestReadRank() (rank int, ok bool) {
	if c.rq.head == nil {
		return 0, false
	}
	return c.rq.head.DAddr.Rank, true
}

// HasDemandFor reports whether any queued host request targets the given
// rank and bank (used to give host row commands priority over NDA row
// commands, Section III-B). Two bucket-occupancy reads.
func (c *Controller) HasDemandFor(rank, flatBank int) bool {
	key := rank*dram.BanksPerRank + flatBank
	return c.rq.banks[key].n > 0 || c.wq.banks[key].n > 0
}

// NextEvent returns the earliest DRAM cycle >= now at which the
// controller can change observable state, or an earlier cycle. With all
// queues empty nothing can wake it but an enqueue, so it reports Never.
// With requests queued it reports a lower bound on the earliest
// cycle any FR-FCFS candidate's command can legally issue — when every
// queued request is timing-blocked that bound lies beyond now, and every
// cycle before it is provably a scheduler no-op, extending fast-forward
// into write-drain and launch-heavy windows. The bound is the smallest
// lazy key (keys.go), so it may come due before any candidate is ready;
// that early wake costs one no-issue Tick, which re-derives it from the
// keys that Tick rewrote. Cycles where Tick performs internal
// bookkeeping (overflow refill, drain-watermark flips) report now.
//
// The bound is memoized (the wake memo, setHint), so a blocked window
// costs one scan, not one per query.
func (c *Controller) NextEvent(now int64) int64 {
	if c.rq.n == 0 && c.wq.n == 0 && c.overflow.Len() == 0 {
		return dram.Never
	}
	if c.refSched {
		// The rescan oracle derives no horizons; stay cycle-exact.
		return now
	}
	if c.issuedRank >= 0 {
		// The controller issued on its most recent executed cycle;
		// report due. The common case is more ready work immediately
		// after an issue, so horizon derivation is deferred until a
		// cycle proves the pipeline drained (a Tick that issues nothing
		// clears issuedRank and leaves a fused memo behind).
		return now
	}
	if c.overflow.Len() > 0 && c.wq.n < writeQueueSize {
		return now // next Tick refills the write queue
	}
	if (!c.drain && c.wq.n >= drainHigh) || (c.drain && c.wq.n <= drainLow) {
		return now // next Tick flips drain hysteresis (Drains counter)
	}
	// The memo is served while no enqueue or dequeue (ver) and no row
	// change on the channel (RowSeq) happened since it was derived,
	// whether by a Tick that attempted both queues and issued nothing
	// (as a byproduct of its failed scans) or by an earlier query.
	// Other commands on the channel — NDA columns above all — only push
	// horizons later (the row-log argument, keys.go), so the memo
	// stays a lower bound across them. A memo that has come due is
	// served without re-deriving, whatever moved since: reporting now
	// is always sound, because a wake that comes early costs one
	// no-issue Tick, which re-derives the memo. The horizon covers only
	// candidates that can mature on their own (future timing bounds):
	// rowWanted-blocked PREs are excluded, because their block lifts
	// only on a queue mutation or a row change — events that bump ver
	// or RowSeq and re-derive this bound. Never therefore means "no
	// timing-driven wake at all": the controller sleeps until such an
	// event.
	if !c.hintValid || (c.hint > now && (c.hintVer != c.ver || c.hintRowSeq != c.mem.RowSeq(c.channel))) {
		c.setHint(min(c.queueHorizon(&c.rq, false, now), c.queueHorizon(&c.wq, true, now)))
	}
	return max(c.hint, now)
}

// queueHorizon returns a lower bound on the earliest cycle any of the
// queue's FR-FCFS candidates (pass-1 row hits and pass-2 row commands)
// can issue, assuming no intervening commands: now when scan finds one
// ready (rowWanted-blocked PREs are not candidates), else scan's bound.
// Requests blocked structurally on another request's progress (row kept
// open for an older hit) are covered by that request's own candidate
// horizon.
func (c *Controller) queueHorizon(q *reqQueue, writes bool, now int64) int64 {
	if q.n == 0 {
		return dram.Never
	}
	cmd := dram.CmdRD
	if writes {
		cmd = dram.CmdWR
	}
	if best, best2, hz := c.scan(q, cmd, now); best == nil && best2 == nil {
		return hz
	}
	return now
}

// Tick advances the controller one DRAM cycle, issuing at most one
// command on the channel.
func (c *Controller) Tick(now int64) {
	c.issuedRank = -1

	// Refill the write queue from the overflow buffer.
	for c.overflow.Len() > 0 && c.wq.n < writeQueueSize {
		r := c.overflow.Pop()
		r.seq = c.seqGen
		c.seqGen++
		c.wq.push(r)
		c.ver++
	}

	// Write-drain mode hysteresis.
	if !c.drain && c.wq.n >= drainHigh {
		c.drain = true
		c.Drains++
	}
	if c.drain && c.wq.n <= drainLow {
		c.drain = false
	}

	useWrites := c.drain || (c.rq.n == 0 && c.wq.n > 0)
	if useWrites {
		if c.schedule(&c.wq, now, true) {
			return
		}
		h := c.sweepHz
		// Fall through: if no write can issue, try reads anyway.
		if !c.schedule(&c.rq, now, false) {
			c.setHint(min(h, c.sweepHz))
		}
		return
	}
	if c.schedule(&c.rq, now, false) {
		return
	}
	h := c.sweepHz
	// Opportunistic writes when no read can make progress.
	if !c.schedule(&c.wq, now, true) {
		c.setHint(min(h, c.sweepHz))
	}
}

// setHint records the wake memo NextEvent serves — the fused bound of a
// no-issue Tick's failed scans, or one NextEvent derived — stamped with
// the state versions it was derived under.
func (c *Controller) setHint(h int64) {
	c.hint = h
	c.hintValid = true
	c.hintVer = c.ver
	c.hintRowSeq = c.mem.RowSeq(c.channel)
}

// schedule applies FR-FCFS to the given queue: first a ready row-hit
// column command in oldest-first order, then a row command (ACT or PRE)
// for the oldest request per bank. Returns true if a command issued.
//
// Candidate selection runs off the lazy per-bank keys (keys.go): the
// per-bank entries are unchanged (pass 1's only viable requests are
// each open bank's oldest row hit, pass 2's are the bucket heads —
// exactly the requests the rescan's visited-bank set selected), but
// only the banks whose key is due are examined per tick instead of
// every occupied bank. A candidate is ready iff now has reached its exact
// horizon — dram's cached rank-side bound plus, for columns, the O(1)
// channel-bus bound — so "oldest ready" equals the rescan's "first in
// arrival order passing CanIssue".
func (c *Controller) schedule(q *reqQueue, now int64, writes bool) bool {
	c.sweepHz = dram.Never
	if q.n == 0 {
		return false
	}
	if c.refSched {
		// The rescan derives no horizon; NextEvent reports this mode
		// due every cycle (cycle-exact), as the oracle wants.
		return c.scheduleRef(q, now, writes)
	}
	cmd := dram.CmdRD
	if writes {
		cmd = dram.CmdWR
	}
	// The scan finds both passes' oldest ready candidates (the row hit
	// — pass 1 — always wins over a row command, pass 2) and the lower
	// bound a no-issue Tick fuses into the memo NextEvent serves
	// (sweepHz); an issuing tick's bound is never consumed.
	best, best2, hz := c.scan(q, cmd, now)
	c.sweepHz = hz
	if best != nil {
		c.issueColumn(cmd, best, q, now, writes)
		return true
	}
	// Pass 2: the oldest ready row command. scan has already
	// applied the open-page rule: a PRE whose open row a queued request
	// still wants is not a candidate (examine evaluates rowWanted
	// against this cycle's queues, or serves a block no event has
	// lifted since).
	if e := best2; e != nil {
		c.mem.Issue(e.p2Cmd, e.p2.DAddr, now, false)
		if e.p2Cmd == dram.CmdPRE {
			c.PresIssued++
		} else {
			c.ActsIssued++
		}
		c.markRowCmd(e.p2.DAddr, now)
		return true
	}
	return false
}

// scheduleRef is the original O(queue)-per-cycle FR-FCFS rescan, kept as
// the oracle for the scheduler equivalence tests.
func (c *Controller) scheduleRef(q *reqQueue, now int64, writes bool) bool {
	// Pass 1: ready column commands (row hits), in arrival order.
	for r := q.head; r != nil; r = r.qnext {
		row, open := c.mem.OpenRow(r.DAddr)
		if !open || row != r.DAddr.Row {
			continue
		}
		cmd := dram.CmdRD
		if writes {
			cmd = dram.CmdWR
		}
		if !c.mem.CanIssue(cmd, r.DAddr, now, false) {
			continue
		}
		c.issueColumn(cmd, r, q, now, writes)
		return true
	}
	// Pass 2: row commands for the oldest request in each conflicting
	// bank, in arrival order.
	c.seenGen++
	for r := q.head; r != nil; r = r.qnext {
		if c.seen[r.bankKey] == c.seenGen {
			continue
		}
		c.seen[r.bankKey] = c.seenGen
		row, open := c.mem.OpenRow(r.DAddr)
		if open && row == r.DAddr.Row {
			continue // column blocked only by timing; wait
		}
		if open {
			if c.rowWantedRef(r.DAddr, row) {
				continue
			}
			if c.mem.CanIssue(dram.CmdPRE, r.DAddr, now, false) {
				c.mem.Issue(dram.CmdPRE, r.DAddr, now, false)
				c.PresIssued++
				c.markRowCmd(r.DAddr, now)
				return true
			}
			continue
		}
		if c.mem.CanIssue(dram.CmdACT, r.DAddr, now, false) {
			c.mem.Issue(dram.CmdACT, r.DAddr, now, false)
			c.ActsIssued++
			c.markRowCmd(r.DAddr, now)
			return true
		}
	}
	return false
}

// rowWanted reports whether any queued request still targets the open row
// of bank key bk (open-page policy keeps it open for them). It scans
// the bank's buckets in both queues — O(per-bank occupancy).
func (c *Controller) rowWanted(bk int32, openRow int) bool {
	for r := c.rq.banks[bk].head; r != nil; r = r.bnext {
		if r.DAddr.Row == openRow {
			return true
		}
	}
	for r := c.wq.banks[bk].head; r != nil; r = r.bnext {
		if r.DAddr.Row == openRow {
			return true
		}
	}
	return false
}

// rowWantedRef is the original whole-queue scan, used by scheduleRef.
func (c *Controller) rowWantedRef(a dram.Addr, openRow int) bool {
	match := func(r *Request) bool {
		return r.DAddr.Rank == a.Rank && r.DAddr.BankGroup == a.BankGroup &&
			r.DAddr.Bank == a.Bank && r.DAddr.Row == openRow
	}
	for r := c.rq.head; r != nil; r = r.qnext {
		if match(r) {
			return true
		}
	}
	for r := c.wq.head; r != nil; r = r.qnext {
		if match(r) {
			return true
		}
	}
	return false
}

func (c *Controller) issueColumn(cmd dram.Command, r *Request, q *reqQueue, now int64, write bool) {
	c.mem.Issue(cmd, r.DAddr, now, false)
	c.ver++
	c.issuedRank = r.DAddr.Rank
	// The dequeue may lift the open-page block on the other queue's PRE
	// to the same bank (r may have been the request wanting the row);
	// this queue's entry is revalidated by remove's bucket mutation.
	o := &c.rq
	if q == o {
		o = &c.wq
	}
	if i := o.occPos[r.bankKey]; i >= 0 && o.sched[i].preBlocked {
		o.sched[i].preBlocked = false
		o.key[i] = -1
	}
	q.remove(r)
	var dataStart, dataEnd int64
	if write {
		c.WritesIssued++
		dataStart = now + dram.CWL
		dataEnd = now + dram.WriteLatency
	} else {
		c.ReadsIssued++
		dataStart = now + dram.CL
		dataEnd = now + dram.ReadLatency
		c.ReadLatencySum += dataEnd - r.Arrive
	}
	// The rank counts as host-busy during the data burst; the CAS-wait
	// window remains available to NDA column commands.
	c.IdleHists[r.DAddr.Rank].MarkBusy(dataStart, dataEnd)
	done := r.Done
	c.release(r)
	if done != nil {
		c.csink(done, dataEnd)
	}
}

// markRowCmd records host activity on a rank for a row command.
func (c *Controller) markRowCmd(a dram.Addr, now int64) {
	c.ver++
	c.issuedRank = a.Rank
	c.IdleHists[a.Rank].MarkBusy(now, now+1)
}

// FinalizeStats closes the idle histograms at simulation end.
func (c *Controller) FinalizeStats(end int64) {
	for i := range c.IdleHists {
		c.IdleHists[i].Finalize(end)
	}
}
