package mc

import (
	"math/bits"

	"chopim/internal/dram"
)

// Calendar-queue candidate selection (DESIGN.md §2.6). Instead of
// sweeping every occupied bank on every due tick, each occupied bank is
// bucketed by a key that lower-bounds the earliest cycle any of its
// FR-FCFS candidates can issue:
//
//	key = min( max(p1Rank, ExtColReady), p2Rank )
//
// A due tick then examines only the ready region — banks whose key has
// reached now — plus the banks whose row state changed since the queue
// last synced. The lower-bound property is what makes lazy keys sound:
//
//   - The candidate structure (which request is the row hit, whether
//     the bank needs ACT or PRE) and the direction of horizon movement
//     split by command class. ACT and PRE change one bank's row state:
//     they can create candidates for that bank or reassign its horizons
//     outright (earlier included), and dram.Mem logs the bank in its
//     channel's row log — calSync replays the log and parks exactly the
//     logged banks in the ready region before any decision or horizon
//     is derived, so a structural change can never leave a bank keyed
//     beyond its true ready cycle. To every OTHER bank of the rank an
//     ACT only pushes tRRD/tFAW forward and a PRE changes nothing.
//     Column commands and REF only push horizons forward (dram.Issue
//     maxi semantics). Keys staled by any of these under-estimate, and
//     the banks are revalidated lazily when their old key comes due.
//   - The channel-bus horizon folded into column keys moves only on
//     this controller's own external columns (internal NDA columns skip
//     the bus), and ExtColReady is monotone nondecreasing under legal
//     command sequences for every rank (bus occupancy ends only move
//     forward, and every branch switch adds at least the turnaround the
//     issue itself had to respect — requires ReadToWrite >= CL-CWL,
//     which Timing.Validate pins), so a stale bus component only
//     under-estimates.
//   - Bucket mutations (enqueue, dequeue-with-survivors) park the bank
//     in the ready region for unconditional revalidation at the next
//     scan.
//   - A ready PRE that the open-page rule blocks (rowWanted: a queued
//     request still wants the open row) is not a candidate, so examine
//     drops it from the bank's key and marks the entry preBlocked. The
//     block lifts only when a request for the open row leaves either
//     queue or the row itself changes: a dequeue from this queue's
//     bucket is a bucket mutation, a dequeue from the other queue's
//     bucket of the same bank clears the flag and force-readies the
//     bank (issueColumn), and a row change is logged. A blocked bank
//     with no row hit has no key at all and is parked off every list.
//
// Keys at or below the synced tick live on the ready list; keys inside
// the ring window live in their exact slot (one key per slot); keys
// beyond the window (refresh pushes horizons by tRFC) live on the
// overflow list and re-enter the ring as the base advances. The ring's
// occupied slots are tracked in a bitmap so advancing to the next
// non-empty key is a handful of word scans, independent of occupancy.

// calUnlink detaches a bank from whichever calendar list holds it.
func (q *reqQueue) calUnlink(bk int32) {
	switch q.calWhere[bk] {
	case calAbsent:
		return
	case calParked:
		q.calWhere[bk] = calAbsent
		return
	case calBucket:
		q.calCount--
	}
	p, n := q.calPrev[bk], q.calNext[bk]
	if n != -1 {
		q.calPrev[n] = p
	}
	if p != -1 {
		q.calNext[p] = n
	} else {
		switch q.calWhere[bk] {
		case calBucket:
			s := int(q.calKey[bk]) & calMask
			q.calBkt[s] = n
			if n == -1 {
				q.calBits[s>>6] &^= 1 << uint(s&63)
			}
		case calInReady:
			q.calReady = n
		case calInOver:
			q.calOver = n
		}
	}
	q.calWhere[bk] = calAbsent
}

// calPushReady prepends a bank to the ready list (no key needed: ready
// banks are revalidated by every scan).
func (q *reqQueue) calPushReady(bk int32) {
	q.calPrev[bk] = -1
	q.calNext[bk] = q.calReady
	if h := q.calReady; h != -1 {
		q.calPrev[h] = bk
	}
	q.calReady = bk
	q.calWhere[bk] = calInReady
}

// calForceReady moves a bank to the ready region for unconditional
// revalidation (bucket-content mutations: enqueue, partial dequeue).
func (q *reqQueue) calForceReady(bk int32) {
	if q.calWhere[bk] == calInReady {
		return
	}
	q.calUnlink(bk)
	q.calPushReady(bk)
}

// calPlace files a bank under key k relative to the synced tick now.
// Callers run after calAdvance(now), so calBase == now+1 and any future
// key inside the window maps to its exact slot. A Never key (a
// rowWanted-blocked PRE and no row hit) parks the bank off every list.
func (q *reqQueue) calPlace(bk int32, k, now int64) {
	if k == dram.Never {
		q.calUnlink(bk)
		q.calKey[bk] = k
		q.calWhere[bk] = calParked
		return
	}
	if k <= now {
		if q.calWhere[bk] == calInReady {
			return
		}
		q.calUnlink(bk)
		q.calPushReady(bk)
		return
	}
	if q.calWhere[bk] == calBucket && q.calKey[bk] == k {
		return
	}
	q.calUnlink(bk)
	q.calKey[bk] = k
	if k-q.calBase >= calSlots {
		q.calPrev[bk] = -1
		q.calNext[bk] = q.calOver
		if h := q.calOver; h != -1 {
			q.calPrev[h] = bk
		}
		q.calOver = bk
		q.calWhere[bk] = calInOver
		return
	}
	s := int(k) & calMask
	q.calPrev[bk] = -1
	q.calNext[bk] = q.calBkt[s]
	if h := q.calBkt[s]; h != -1 {
		q.calPrev[h] = bk
	} else {
		q.calBits[s>>6] |= 1 << uint(s&63)
	}
	q.calBkt[s] = bk
	q.calWhere[bk] = calBucket
	q.calCount++
}

// calFirstKey returns the smallest key currently in the ring, or Never
// when the ring is empty. Slots are scanned in key order: the base
// slot's word from the base bit up, the following words whole, then the
// base word's wrapped low bits.
func (q *reqQueue) calFirstKey() int64 {
	if q.calCount == 0 {
		return dram.Never
	}
	sBase := int(q.calBase) & calMask
	wi, bi := sBase>>6, uint(sBase&63)
	slot := -1
	if v := q.calBits[wi] &^ (1<<bi - 1); v != 0 {
		slot = wi<<6 + bits.TrailingZeros64(v)
	} else {
		for i := 1; i < calWords; i++ {
			w := (wi + i) & (calWords - 1)
			if v := q.calBits[w]; v != 0 {
				slot = w<<6 + bits.TrailingZeros64(v)
				break
			}
		}
		if slot < 0 {
			if v := q.calBits[wi] & (1<<bi - 1); v != 0 {
				slot = wi<<6 + bits.TrailingZeros64(v)
			}
		}
	}
	return q.calBase + int64((slot-sBase)&calMask)
}

// calAdvance moves the ring base to now+1, draining every bucket whose
// key has come due into the ready list and re-filing overflow entries
// that fit the new window.
func (q *reqQueue) calAdvance(now int64) {
	if now < q.calBase {
		return
	}
	for q.calCount > 0 {
		k := q.calFirstKey()
		if k > now {
			break
		}
		s := int(k) & calMask
		for bk := q.calBkt[s]; bk != -1; {
			nx := q.calNext[bk]
			q.calCount--
			q.calPushReady(bk)
			bk = nx
		}
		q.calBkt[s] = -1
		q.calBits[s>>6] &^= 1 << uint(s&63)
		q.calBase = k + 1
	}
	q.calBase = now + 1
	if q.calOver != -1 {
		for bk := q.calOver; bk != -1; {
			nx := q.calNext[bk]
			if k := q.calKey[bk]; k-q.calBase < calSlots {
				q.calUnlink(bk)
				q.calPlace(bk, k, now)
			}
			bk = nx
		}
	}
}

// calSync brings the queue's calendar current at now: due buckets drain
// to the ready list, and every occupied bank whose ROW state moved since
// the last sync — an ACT, PRE or WarmOpen logged in the channel's row
// log — is parked in the ready region for revalidation: those are the
// only events that can create a candidate or move one earlier, and each
// touches only its own bank. Column commands and REF deliberately do
// not trigger a resync: they only push horizons forward, so the
// affected banks' keys go stale LOW and the banks merely surface for
// revalidation a few cycles early when their old key comes due (the
// scan re-files them at the fresh horizon). When the log no longer
// covers the span since the last sync (it wrapped during a long idle
// stretch, or the device was restored behind the queue, which wraps
// the unsigned distance), every occupied bank is parked. A queue rebuilt by Restore needs no such signal: every push
// parks its bank, so all of them start out ready. After calSync,
// every bank outside the ready region provably has no candidate ready
// at or before its key (the lower-bound invariant at the head of this
// file), so the scan may ignore it.
func (c *Controller) calSync(q *reqQueue, now int64) {
	q.calAdvance(now)
	seq := c.mem.RowSeq(c.channel)
	if seq == q.rowSeen {
		return
	}
	if seq-q.rowSeen > dram.RowLogLen {
		for _, bk := range q.occ {
			q.calForceReady(bk)
		}
	} else {
		base := int32(c.channel * c.nrank * c.bpr)
		for s := q.rowSeen; s < seq; s++ {
			if bk := base + c.mem.RowChange(c.channel, s); q.occPos[bk] >= 0 {
				q.calForceReady(bk)
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
// head of this file). min(ready1, ready2) is the bank's calendar key.
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

// calScan is the calendar replacement for the per-tick occupied-bank
// sweep: it validates only the ready region and returns the same
// decision outputs the sweep derived — the oldest ready pass-1 request
// and the oldest ready issuable pass-2 entry (rowWanted-blocked PREs
// excluded by examine) — plus the min FUTURE candidate horizon among
// the banks it examined (hzFuture: horizons strictly beyond now). Ready
// candidates deliberately do not contribute to the horizon: they issue
// this very tick. Blocked PREs contribute nothing either: their block
// lifts only on a queue mutation (ver) or a logged row change
// (RowSeq), each of which re-dispatches the controller, so it SLEEPS
// through rowWanted-blocked windows instead of polling them cycle by
// cycle (the scan-on-tick cost the calendar exists to remove). Banks
// found not ready are re-filed at their true ready cycle on the way
// through, and blocked banks leave the ready region, so a saturated
// channel's scan touches O(ready candidates) banks per due tick.
// Decision equivalence with the rescan oracle is inherited from the
// sweep's argument: the ready region provably contains every bank with
// a ready issuable candidate (calSync), readiness per candidate is the
// same exact horizon compare plus the same rowWanted rule, and
// oldest-first selection by seq is order-independent.
func (c *Controller) calScan(q *reqQueue, cmd dram.Command, now int64) (best *Request, best2 *bankEntry, hzFuture int64) {
	c.calSync(q, now)
	hzFuture = dram.Never
	for bk := q.calReady; bk != -1; {
		nx := q.calNext[bk]
		e, ready1, ready2 := c.examine(q, bk, cmd, now)
		k := min(ready1, ready2)
		if k > now {
			if k < hzFuture {
				hzFuture = k
			}
			q.calPlace(bk, k, now)
			bk = nx
			continue
		}
		// A ready bank can still carry one future-side candidate (an
		// open bank whose PRE is ready but whose row hit matures later);
		// its maturation needs a wake of its own.
		if ready1 > now && ready1 < hzFuture {
			hzFuture = ready1
		}
		if ready2 > now && ready2 < hzFuture {
			hzFuture = ready2
		}
		if ready1 <= now && (best == nil || e.p1.seq < best.seq) {
			best = e.p1
		}
		if ready2 <= now && (best2 == nil || e.p2.seq < best2.p2.seq) {
			best2 = e
		}
		bk = nx
	}
	return best, best2, hzFuture
}

// calHorizon returns the exact min candidate horizon of the queue after
// a calScan found nothing to issue: the fresh horizons of the examined
// ready region, min'd with the validated first future bucket. Bucket
// keys staled by column traffic are lower bounds, so the min bucket is
// validated (and its banks re-filed at their fresh, later cycles) until
// one survives — its key is then the true minimum over the whole ring:
// every deeper bank's true readiness is bounded below by its own stale
// key, which is >= the surviving bucket's. Overflow keys (refresh-far
// horizons) contribute their stale lower bounds, which only costs an
// extra no-op wake in the rare refresh case. The result feeds the
// fused NextEvent hint, so a no-issue tick leaves an exact wake bound
// behind and the controller sleeps until a candidate truly matures.
func (c *Controller) calHorizon(q *reqQueue, cmd dram.Command, now int64, hzReady int64) int64 {
	for q.calCount > 0 {
		k := q.calFirstKey()
		if k >= hzReady {
			break
		}
		stable := true
		s := int(k) & calMask
		for bk := q.calBkt[s]; bk != -1; {
			nx := q.calNext[bk]
			_, ready1, ready2 := c.examine(q, bk, cmd, now)
			if k2 := min(ready1, ready2); k2 != k {
				// Keys are lower bounds, so a fresh key only moves
				// later; re-file and keep validating the new minimum.
				stable = false
				q.calPlace(bk, k2, now)
			}
			bk = nx
		}
		if stable {
			if k < hzReady {
				hzReady = k
			}
			break
		}
	}
	for bk := q.calOver; bk != -1; bk = q.calNext[bk] {
		if q.calKey[bk] < hzReady {
			hzReady = q.calKey[bk]
		}
	}
	return hzReady
}
