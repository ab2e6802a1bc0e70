package mc

import "chopim/internal/dram"

// Lazy per-bank keys (DESIGN.md §2.6). Each occupied bank carries a
// key (reqQueue.key, dense and parallel to occ) that lower-bounds the
// earliest cycle any of its FR-FCFS candidates can issue:
//
//	key = min( max(p1Rank, ExtColReady), p2Rank )
//
// A due tick's scan walks the keys linearly and examines only the banks
// whose key has reached now, -1 ("revalidate at the next scan")
// included. The lower-bound property is what makes lazy keys sound:
//
//   - ACT and PRE change one bank's row state: they can create
//     candidates for that bank or move its horizons outright (earlier
//     included), and dram.Mem logs the bank in its channel's row log,
//     which sync replays to reset exactly the logged banks' keys before
//     any decision or horizon is derived. To every OTHER bank of the
//     rank an ACT only pushes tRRD/tFAW forward and a PRE changes
//     nothing; column commands and REF only push horizons forward
//     (dram.Issue maxi semantics). Keys staled by these under-estimate,
//     and the banks are revalidated when their old key comes due.
//   - The channel-bus horizon folded into column keys moves only on
//     this controller's own external columns (internal NDA columns skip
//     the bus), and ExtColReady is monotone nondecreasing under legal
//     command sequences (bus occupancy ends only move forward, and every
//     branch switch adds at least the turnaround the issue itself had to
//     respect — requires ReadToWrite >= CL-CWL, which Timing.Validate
//     pins), so a stale bus component only under-estimates.
//   - Bucket mutations (a push into an occupied bank, a remove that
//     leaves survivors) reset the bank's key; a newly occupied bank
//     starts at -1, so a queue rebuilt by Restore revalidates them all.
//   - A ready PRE that the open-page rule blocks (rowWanted: a queued
//     request still wants the open row) is not a candidate: examine
//     drops it from the key and marks the entry preBlocked. The block
//     lifts only when a request for the open row leaves either queue or
//     the row changes: a dequeue from this queue's bucket is a bucket
//     mutation, a dequeue from the other queue's bucket clears the mark
//     and resets the key (issueColumn), and a row change is logged. A
//     blocked bank with no row hit is parked at key dram.Never until
//     one of those events resets it.

// sync resets the key of every occupied bank whose ROW state moved since
// the last sync — an ACT, PRE or WarmOpen in the channel's row log —
// and, when the log no longer covers that span (it wrapped during a
// long idle stretch, or the device was restored behind the queue, which
// wraps the unsigned distance), every key.
func (c *Controller) sync(q *reqQueue) {
	seq := c.mem.RowSeq(c.channel)
	if seq == q.rowSeen {
		return
	}
	if seq-q.rowSeen > dram.RowLogLen {
		for i := range q.key {
			q.key[i] = -1
		}
	} else {
		base := int32(c.channel * c.nrank * c.bpr)
		for s := q.rowSeen; s < seq; s++ {
			if i := q.occPos[base+c.mem.RowChange(c.channel, s)]; i >= 0 {
				q.key[i] = -1
			}
		}
	}
	q.rowSeen = seq
}

// examine brings bank bk's entry current — recomputing it when its
// bucket changed or a command issued to its rank since it was derived —
// and returns it with its candidates' earliest issue cycles (Never when
// absent), the channel-bus horizon folded into the column candidate's.
// A PRE ready at now is checked against the open-page rule once: when a
// queued request still wants the open row it is marked preBlocked and
// reported absent until an unblocking event clears the mark (see the
// head of this file). min(ready1, ready2) is the bank's key.
func (c *Controller) examine(q *reqQueue, bk int32, cmd dram.Command, now int64) (e *bankEntry, ready1, ready2 int64) {
	rank := int(bk>>q.shift) - c.channel*c.nrank
	e = &q.sched[q.occPos[bk]]
	if st := c.mem.RankStamp(c.channel, rank); e.dirty || e.rkStamp != st {
		c.recomputeEntry(q, e, bk, cmd, st)
	}
	ready1, ready2 = dram.Never, dram.Never
	if e.p1 != nil {
		ready1 = max(e.p1Rank, c.mem.ExtColReady(c.channel, cmd, rank))
	}
	if e.p2 != nil {
		ready2 = e.p2Rank
		if e.p2Cmd == dram.CmdPRE && (e.preBlocked || ready2 <= now && c.rowWanted(e.p2.DAddr, int(e.p2Row))) {
			e.preBlocked = true
			ready2 = dram.Never
		}
	}
	return e, ready1, ready2
}

// scan examines the banks whose key is due (at or below now, -1
// included) and writes each one's fresh key back. It returns the oldest
// ready pass-1 request, the oldest ready issuable pass-2 entry
// (rowWanted-blocked PREs excluded by examine), and the min FUTURE
// candidate horizon among the banks it examined. Ready candidates do
// not contribute to the horizon (they issue this very tick), nor do
// blocked PREs: their block lifts only on a queue mutation (ver) or a
// logged row change (RowSeq), each of which re-derives the wake memo,
// so the controller sleeps through rowWanted-blocked windows. The
// decisions equal the rescan oracle's: after sync the due banks include
// every bank with a ready issuable candidate, readiness is the same
// exact horizon compare plus the same rowWanted rule, and oldest-first
// selection by seq is order-independent.
func (c *Controller) scan(q *reqQueue, cmd dram.Command, now int64) (best *Request, best2 *bankEntry, hzFuture int64) {
	c.sync(q)
	hzFuture = dram.Never
	for i, k := range q.key {
		if k > now {
			continue
		}
		e, ready1, ready2 := c.examine(q, q.occ[i], cmd, now)
		k = min(ready1, ready2)
		q.key[i] = k
		if k > now {
			hzFuture = min(hzFuture, k)
			continue
		}
		// A ready bank can still carry one future-side candidate (an
		// open bank whose PRE is ready but whose row hit matures later);
		// its maturation needs a wake of its own.
		if ready1 > now {
			hzFuture = min(hzFuture, ready1)
		}
		if ready2 > now {
			hzFuture = min(hzFuture, ready2)
		}
		if ready1 <= now && (best == nil || e.p1.seq < best.seq) {
			best = e.p1
		}
		if ready2 <= now && (best2 == nil || e.p2.seq < best2.p2.seq) {
			best2 = e
		}
	}
	return best, best2, hzFuture
}

// horizon returns the exact min candidate horizon of the queue after a
// scan at now found nothing to issue (every key is then above now),
// given hz, the scan's horizon over the banks it examined. The bank
// holding the smallest key below hz is re-examined, its key rewritten
// at its fresh (later) cycle, until one survives unchanged: that key is
// the true minimum, since every other bank's readiness is bounded below
// by its own key. The result feeds the wake memo, so the controller
// sleeps until a candidate truly matures.
func (c *Controller) horizon(q *reqQueue, cmd dram.Command, now, hz int64) int64 {
	for {
		at, m := -1, hz
		for i, k := range q.key {
			if k < m {
				at, m = i, k
			}
		}
		if at < 0 {
			return hz
		}
		_, ready1, ready2 := c.examine(q, q.occ[at], cmd, now)
		if k := min(ready1, ready2); k != m {
			// A fresh key only moves later; keep validating the new
			// minimum.
			q.key[at] = k
			continue
		}
		return m
	}
}
