package mc

import "chopim/internal/dram"

// Bucketed transaction queues. Each queue keeps its requests on two
// intrusive doubly-linked lists at once:
//
//   - an arrival list (head..tail, FR-FCFS age order, the order the old
//     slice-based scheduler scanned), and
//   - a per-(rank, flat-bank) bucket list, also age-ordered.
//
// Together with per-rank and per-bank occupancy counters this makes the
// per-cycle coordination hooks O(1) (HasDemandFor, HasAnyDemandFor,
// OldestReadRank) and both FR-FCFS passes O(occupied banks): pass 1's
// candidates are each bank's oldest row hit, pass 2's are the bucket
// heads, and rowWanted scans one bucket instead of both whole queues.
//
// Request nodes come from a per-controller free list, so the steady-state
// tick loop allocates nothing; unlinking is O(1) from any position (a
// column command retires a request from the middle of the age order).

// bankList is one (rank, flat-bank) bucket: the queue's requests
// for that bank in age order.
type bankList struct {
	head, tail *Request
	n          int
}

// reqQueue is one transaction queue (read or write side).
type reqQueue struct {
	head, tail *Request
	n          int
	shift      uint // log2(banks per rank): bankKey >> shift = rank

	banks []bankList // indexed by Request.bankKey
	rankN []int      // queued requests per rank

	// headVer and demVer are the inputs of the NDA engine's per-rank
	// revalidation counter (Controller.NDAVer). headVer
	// advances exactly when the queue's age-order head changes — the
	// only input OldestReadRank reads. demVer[r] advances exactly when
	// some bucket of rank r crosses between empty and occupied —
	// the only transitions that can flip a HasDemandFor answer for that
	// rank. Both are monotone; queue churn that moves neither (a push
	// behind an existing head into an already-occupied bucket, a remove
	// that leaves its bucket non-empty) is invisible to every per-rank
	// NDA branch and bumps neither counter.
	headVer uint64
	demVer  []uint64
	occ     []int32 // occupied bank keys, unordered (swap-removed)
	occPos  []int32 // bankKey -> index into occ, -1 when absent
	// sched is the per-bank scheduling cache and key the per-bank lazy
	// lower-bound keys (see keys.go), both kept DENSE: sched[i] and
	// key[i] belong to occ[i], maintained through the same swap-removal.
	// A key of -1 means "revalidate at the next scan"; dram.Never means
	// parked (a rowWanted-blocked PRE and no row hit).
	sched []bankEntry
	key   []int64
	// rowSeen is the channel's dram.Mem.RowSeq at the queue's last
	// sync: the row changes logged since then are the banks the next
	// sync must reset.
	rowSeen uint64
}

func (q *reqQueue) init(ranks, banksPerRank int) {
	nb := ranks * banksPerRank
	for 1<<q.shift < banksPerRank {
		q.shift++ // geometry fields are validated powers of two
	}
	q.banks = make([]bankList, nb)
	q.sched = make([]bankEntry, 0, nb)
	q.rankN = make([]int, ranks)
	q.demVer = make([]uint64, ranks)
	q.occ = make([]int32, 0, nb)
	q.occPos = make([]int32, nb)
	q.key = make([]int64, 0, nb)
	for i := range q.occPos {
		q.occPos[i] = -1
	}
}

// push appends r to the queue (age order) and its bank bucket.
func (q *reqQueue) push(r *Request) {
	r.qnext, r.qprev = nil, q.tail
	if q.tail != nil {
		q.tail.qnext = r
	} else {
		q.head = r
		q.headVer++
	}
	q.tail = r
	q.n++
	q.rankN[r.bankKey>>q.shift]++

	bl := &q.banks[r.bankKey]
	r.bnext, r.bprev = nil, bl.tail
	if bl.tail != nil {
		bl.tail.bnext = r
		i := q.occPos[r.bankKey]
		q.sched[i].dirty = true
		// The new request can add an earlier candidate (a row hit where
		// the entry only had a row command); the next scan revalidates
		// the bank.
		q.key[i] = -1
	} else {
		bl.head = r
		q.demVer[r.bankKey>>q.shift]++ // bucket empty -> occupied
		q.occPos[r.bankKey] = int32(len(q.occ))
		q.occ = append(q.occ, r.bankKey)
		q.sched = append(q.sched, bankEntry{dirty: true})
		q.key = append(q.key, -1)
	}
	bl.tail = r
	bl.n++
}

// remove unlinks r from the queue and its bank bucket.
func (q *reqQueue) remove(r *Request) {
	i := q.occPos[r.bankKey]
	q.sched[i].dirty = true
	if r.qprev != nil {
		r.qprev.qnext = r.qnext
	} else {
		q.head = r.qnext
		q.headVer++
	}
	if r.qnext != nil {
		r.qnext.qprev = r.qprev
	} else {
		q.tail = r.qprev
	}
	q.n--
	q.rankN[r.bankKey>>q.shift]--

	bl := &q.banks[r.bankKey]
	if r.bprev != nil {
		r.bprev.bnext = r.bnext
	} else {
		bl.head = r.bnext
	}
	if r.bnext != nil {
		r.bnext.bprev = r.bprev
	} else {
		bl.tail = r.bprev
	}
	bl.n--
	if bl.n == 0 {
		q.demVer[r.bankKey>>q.shift]++ // bucket occupied -> empty
		// Swap-remove the bank (and its dense sched entry and key)
		// from the occupied set.
		last := int32(len(q.occ) - 1)
		moved := q.occ[last]
		q.occ[i] = moved
		q.occPos[moved] = i
		q.occ = q.occ[:last]
		q.occPos[r.bankKey] = -1
		// Stale candidate pointers in the truncated tail are harmless:
		// request nodes are pooled for the controller's lifetime.
		q.sched[i] = q.sched[last]
		q.sched = q.sched[:last]
		q.key[i] = q.key[last]
		q.key = q.key[:last]
	} else {
		// The bank head (pass-2 candidate) or oldest row hit may have
		// changed; revalidate on the next scan.
		q.key[i] = -1
	}
	r.qnext, r.qprev, r.bnext, r.bprev = nil, nil, nil, nil
}

// bankEntry is one bank's slot in a queue's scheduling cache: the
// bank's FR-FCFS candidates and the row identity they were derived
// under. It holds no timing: examine reads the candidates' ready cycles
// from dram.Mem on every visit (BankSched, the per-bank horizon cache,
// and ExtColReady for the channel bus). The candidates depend only on
// the bucket's content and the bank's row state, so an entry is
// re-derived only when its bucket changes (dirty, set by push/remove)
// or the bank's row state no longer matches (idOpen, idRow). The
// cross-queue rowWanted input is evaluated (an O(per-bank occupancy)
// bucket scan over both queues) only once a PRE candidate is ready, and
// a positive answer is cached as preBlocked until an event that can
// lift it (see keys.go). A bank whose key is not due costs a scan one
// int64 compare and no dram read at all. Two entries share a cache
// line: the dense sched array is streamed by the hottest loop in the
// controller.
type bankEntry struct {
	// Pass 1: the bank's oldest row hit (nil when the bank is closed or
	// no queued request matches the open row).
	p1 *Request
	// Pass 2: the bank head's row command (ACT on a closed bank, PRE on
	// a row conflict; nil when the head is itself the row hit).
	p2    *Request
	p2Cmd dram.Command

	// Row identity: the bank's row state the candidates were derived
	// under. A closed bank's row never changes until it opens, so the
	// pair compares exactly. idRow is also the open row a PRE closes.
	idRow  int32
	idOpen bool

	dirty bool
	// preBlocked marks a ready PRE candidate that the open-page rule
	// holds back (rowWanted was true): examine reports it absent, so
	// the bank's key skips it. Cleared by a re-derivation (bucket or
	// row change) and by a dequeue of the same bank from the other
	// queue.
	preBlocked bool
}

// derive re-derives the entry's candidates from the bucket (head is its
// oldest request) and the bank's row state.
func (e *bankEntry) derive(head *Request, row int, open bool) {
	e.p1, e.p2, e.preBlocked = nil, nil, false
	if !open {
		e.p2, e.p2Cmd = head, dram.CmdACT
	} else {
		for r := head; r != nil; r = r.bnext {
			if r.DAddr.Row == row {
				e.p1 = r
				break
			}
		}
		if head.DAddr.Row != row {
			e.p2, e.p2Cmd = head, dram.CmdPRE
		}
	}
	e.dirty = false
	e.idOpen, e.idRow = open, int32(row)
}
