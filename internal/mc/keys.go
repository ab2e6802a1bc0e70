package mc

import "chopim/internal/dram"

// Lazy per-bank keys (DESIGN.md §2.6). Each occupied bank carries a
// key (reqQueue.key, dense and parallel to occ) that lower-bounds the
// earliest cycle any of its FR-FCFS candidates can issue. The bank's
// readiness itself lives only in dram.Mem's per-bank horizon cache
// (BankSched, plus ExtColReady for the channel bus): the key is the
// value examine last derived from it,
//
//	key = min( max(column horizon, ExtColReady), row-command horizon )
//
// A due tick's scan walks the keys linearly and examines only the banks
// whose key has reached now, -1 ("revalidate at the next scan")
// included; the smallest key is the controller's wake memo. The
// lower-bound property is what makes lazy keys sound:
//
//   - ACT and PRE change one bank's row state: they can create
//     candidates for that bank or move its horizons outright (earlier
//     included), and dram.Mem logs the bank in its channel's row log,
//     which sync replays to reset exactly the logged banks' keys before
//     any decision or horizon is derived. To every OTHER bank of the
//     rank an ACT only pushes tRRD/tFAW forward and a PRE changes
//     nothing; column commands only push horizons forward
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
		for s := q.rowSeen; s < seq; s++ {
			if i := q.occPos[c.mem.RowChange(c.channel, s)]; i >= 0 {
				q.key[i] = -1
			}
		}
	}
	q.rowSeen = seq
}

// examine reads bank bk's row state and ready cycles from dram and
// returns its entry with its candidates' earliest issue cycles (Never
// when absent), the channel-bus horizon folded into the column
// candidate's. The candidates themselves are re-derived only when the
// bucket changed (dirty) or the bank's row state no longer matches the
// entry's identity. A PRE ready at now is checked against the
// open-page rule once: when a queued request still wants the open row
// it is marked preBlocked and reported absent until an unblocking event
// clears the mark (see the head of this file). min(ready1, ready2) is
// the bank's key.
func (c *Controller) examine(q *reqQueue, bk int32, cmd dram.Command, now int64) (e *bankEntry, ready1, ready2 int64) {
	rank := int(bk >> q.shift)
	flat := int(bk) & (1<<q.shift - 1)
	row, open, readyACT, readyPRE, readyRD, readyWR := c.mem.BankSched(c.channel, rank, flat>>c.bgShift, flat)
	e = &q.sched[q.occPos[bk]]
	if e.dirty || e.idOpen != open || e.idRow != int32(row) {
		e.derive(q.banks[bk].head, row, open)
	}
	ready1, ready2 = dram.Never, dram.Never
	if e.p1 != nil {
		col := readyRD
		if cmd == dram.CmdWR {
			col = readyWR
		}
		ready1 = max(col, c.mem.ExtColReady(c.channel, cmd, rank))
	}
	if e.p2 != nil {
		switch {
		case e.p2Cmd == dram.CmdACT:
			ready2 = readyACT
		case e.preBlocked || readyPRE <= now && c.rowWanted(bk, int(e.idRow)):
			e.preBlocked = true
		default:
			ready2 = readyPRE
		}
	}
	return e, ready1, ready2
}

// scan examines the banks whose key is due (at or below now, -1
// included) and writes each one's fresh key back. It returns the oldest
// ready pass-1 request, the oldest ready issuable pass-2 entry
// (rowWanted-blocked PREs excluded by examine), and a lower bound on
// every FUTURE candidate horizon in the queue: the min over the fresh
// future horizons of the banks it examined and the keys of the banks it
// did not. Ready candidates do not contribute to the bound (they issue
// this very tick), nor do blocked PREs: their block lifts only on a
// queue mutation (ver) or a logged row change (RowSeq), each of which
// re-derives the wake memo, so the controller sleeps through
// rowWanted-blocked windows. The bound may come due early — a stale key
// under-estimates — which costs one no-issue Tick, whose scan rewrites
// the stale keys and derives a fresh bound. The decisions equal the
// rescan oracle's: after sync the due banks include every bank with a
// ready issuable candidate, readiness is the same exact horizon compare
// plus the same rowWanted rule, and oldest-first selection by seq is
// order-independent.
func (c *Controller) scan(q *reqQueue, cmd dram.Command, now int64) (best *Request, best2 *bankEntry, hz int64) {
	c.sync(q)
	hz = dram.Never
	for i, k := range q.key {
		if k > now {
			hz = min(hz, k)
			continue
		}
		e, ready1, ready2 := c.examine(q, q.occ[i], cmd, now)
		k = min(ready1, ready2)
		q.key[i] = k
		if k > now {
			hz = min(hz, k)
			continue
		}
		// A ready bank can still carry one future-side candidate (an
		// open bank whose PRE is ready but whose row hit matures later);
		// its maturation needs a wake of its own.
		if ready1 > now {
			hz = min(hz, ready1)
		}
		if ready2 > now {
			hz = min(hz, ready2)
		}
		if ready1 <= now && (best == nil || e.p1.seq < best.seq) {
			best = e.p1
		}
		if ready2 <= now && (best2 == nil || e.p2.seq < best2.p2.seq) {
			best2 = e
		}
	}
	return best, best2, hz
}
