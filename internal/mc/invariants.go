package mc

import (
	"fmt"

	"chopim/internal/dram"
)

// Opt-in structural and conservation checks behind sim's
// Config.CheckInvariants. Everything here is cold-path: it runs at
// commit barriers when armed and never during normal scheduling, so it
// may allocate scratch freely.

// OverflowLen returns the write-overflow buffer's occupancy (writebacks
// accepted beyond the write queue, not yet drained into it).
func (c *Controller) OverflowLen() int { return c.overflow.Len() }

// CheckInvariants validates the controller's internal consistency: the
// arrival lists against the occupancy counters and per-bank buckets,
// the dense scheduling cache against the occupied set, the lazy keys
// (see checkKeys) and the wake memo (see checkMemo). now is the last
// cycle the controller was ticked or queried at. Returns the first
// violation found, nil when consistent.
func (c *Controller) CheckInvariants(now int64) error {
	if err := c.checkQueue(&c.rq, "rq", readQueueSize, dram.CmdRD); err != nil {
		return err
	}
	if err := c.checkQueue(&c.wq, "wq", writeQueueSize, dram.CmdWR); err != nil {
		return err
	}
	return c.checkMemo(now)
}

// checkMemo validates the wake memo's soundness: a memo NextEvent would
// serve as a future wake — valid, current under ver and RowSeq, and not
// yet due at now — is at most the earliest cycle any candidate in
// either queue can issue, as bankOracle re-derives it. A memo above
// that cycle would let the system skip a cycle on which the rescan
// oracle issues.
func (c *Controller) checkMemo(now int64) error {
	if !c.hintValid || c.hint <= now || c.hintVer != c.ver ||
		c.hintRowSeq != c.mem.RowSeq(c.channel) || c.refSched {
		return nil
	}
	oracle := dram.Never
	for _, bk := range c.rq.occ {
		oracle = min(oracle, c.bankOracle(&c.rq, bk, dram.CmdRD))
	}
	for _, bk := range c.wq.occ {
		oracle = min(oracle, c.bankOracle(&c.wq, bk, dram.CmdWR))
	}
	if c.hint > oracle {
		return fmt.Errorf("wake memo %d exceeds rescan-oracle ready cycle %d (lower bound violated)", c.hint, oracle)
	}
	return nil
}

func (c *Controller) checkQueue(q *reqQueue, name string, capacity int, cmd dram.Command) error {
	if q.n > capacity {
		return fmt.Errorf("%s occupancy %d exceeds capacity %d", name, q.n, capacity)
	}

	// Arrival list: length, link symmetry, FR-FCFS age order, and the
	// per-bank tallies the O(1) demand hook reads.
	perBank := make(map[int32]int)
	count := 0
	lastSeq := int64(-1)
	var prev *Request
	for r := q.head; r != nil; r = r.qnext {
		if r.qprev != prev {
			return fmt.Errorf("%s arrival list: broken qprev link at position %d", name, count)
		}
		if r.seq <= lastSeq {
			return fmt.Errorf("%s arrival list: seq %d not increasing at position %d", name, r.seq, count)
		}
		lastSeq = r.seq
		wantKey := int32(r.DAddr.Rank*dram.BanksPerRank + r.DAddr.GlobalBank())
		if r.bankKey != wantKey {
			return fmt.Errorf("%s request seq %d: bankKey %d != decoded %d", name, r.seq, r.bankKey, wantKey)
		}
		perBank[r.bankKey]++
		prev = r
		count++
		if count > q.n+1 {
			return fmt.Errorf("%s arrival list longer than occupancy %d (cycle?)", name, q.n)
		}
	}
	if count != q.n {
		return fmt.Errorf("%s arrival list holds %d requests, occupancy counter says %d", name, count, q.n)
	}
	if q.tail != prev {
		return fmt.Errorf("%s arrival list tail does not match last element", name)
	}

	// Occupied set: occ/occPos bijection, dense sched, bucket lists
	// consistent with the arrival tallies.
	if len(q.sched) != len(q.occ) {
		return fmt.Errorf("%s sched length %d != occupied banks %d", name, len(q.sched), len(q.occ))
	}
	for i, bk := range q.occ {
		if q.occPos[bk] != int32(i) {
			return fmt.Errorf("%s occPos[%d]=%d, expected %d", name, bk, q.occPos[bk], i)
		}
		bl := &q.banks[bk]
		if bl.n == 0 {
			return fmt.Errorf("%s bank %d listed occupied but bucket is empty", name, bk)
		}
		if bl.n != perBank[bk] {
			return fmt.Errorf("%s bank %d bucket count %d != arrival-list tally %d", name, bk, bl.n, perBank[bk])
		}
		bseq, bcount := int64(-1), 0
		for r := bl.head; r != nil; r = r.bnext {
			if r.bankKey != bk {
				return fmt.Errorf("%s bank %d bucket holds request with bankKey %d", name, bk, r.bankKey)
			}
			if r.seq <= bseq {
				return fmt.Errorf("%s bank %d bucket out of age order at seq %d", name, bk, r.seq)
			}
			bseq = r.seq
			bcount++
			if bcount > bl.n {
				return fmt.Errorf("%s bank %d bucket longer than its count %d", name, bk, bl.n)
			}
		}
		if bcount != bl.n {
			return fmt.Errorf("%s bank %d bucket holds %d requests, count says %d", name, bk, bcount, bl.n)
		}
	}
	for bk, n := range perBank {
		if q.occPos[bk] < 0 && n > 0 {
			return fmt.Errorf("%s bank %d holds %d requests but is not in the occupied set", name, bk, n)
		}
	}
	return c.checkKeys(q, name, cmd)
}

// checkKeys validates one queue's lazy keys: one key per occupied bank
// and — for banks with no row change pending in the channel's row log
// and no reset (-1) pending — key soundness against a fresh rescan of
// the bank's candidates: the key lower-bounds its earliest issuable
// candidate (a parked bank, keyed Never, therefore has none), and a
// preBlocked mark holds only while the open-page rule blocks the PRE.
func (c *Controller) checkKeys(q *reqQueue, name string, cmd dram.Command) error {
	if len(q.key) != len(q.occ) {
		return fmt.Errorf("%s holds %d keys for %d occupied banks", name, len(q.key), len(q.occ))
	}
	// Banks with a row change the queue has not yet replayed from the
	// channel's row log are exempt: sync resets their keys before any
	// decision, so until then a stale-high key is legitimate — and when
	// the log no longer covers the span since the queue's last sync,
	// every bank is pending. The reference scheduler never consults
	// keys at all.
	if c.refSched {
		return nil
	}
	seq := c.mem.RowSeq(c.channel)
	if seq-q.rowSeen > dram.RowLogLen {
		return nil
	}
	pending := make(map[int32]bool)
	for s := q.rowSeen; s < seq; s++ {
		pending[c.mem.RowChange(c.channel, s)] = true
	}
	for i, bk := range q.occ {
		if q.key[i] == -1 || pending[bk] {
			continue
		}
		if oracle := c.bankOracle(q, bk, cmd); q.key[i] > oracle {
			return fmt.Errorf("%s bank %d key %d exceeds rescan-oracle ready cycle %d (lower bound violated)",
				name, bk, q.key[i], oracle)
		}
		if e := &q.sched[i]; e.preBlocked && (e.p2Cmd != dram.CmdPRE || !c.rowWanted(bk, int(e.idRow))) {
			return fmt.Errorf("%s bank %d marked preBlocked but the open-page rule no longer blocks its PRE", name, bk)
		}
	}
	return nil
}

// bankOracle recomputes the bank's earliest issuable-candidate cycle
// the way the rescan oracle would — a fresh bucket scan against fresh
// horizons, min(max(p1 column ready, channel bus), p2 row-command
// ready), with a PRE the open-page rule blocks (rowWanted) excluded —
// without touching the cached entry.
func (c *Controller) bankOracle(q *reqQueue, bk int32, cmd dram.Command) int64 {
	flat := int(bk) % dram.BanksPerRank
	rank := int(bk) / dram.BanksPerRank
	row, open, readyACT, readyPRE, readyRD, readyWR := c.mem.BankSched(
		c.channel, rank, flat/dram.BanksPerGroup, flat)
	if !open {
		return readyACT
	}
	col := readyRD
	if cmd == dram.CmdWR {
		col = readyWR
	}
	bl := &q.banks[bk]
	k := dram.Never
	for r := bl.head; r != nil; r = r.bnext {
		if r.DAddr.Row == row {
			k = max(col, c.mem.ExtColReady(c.channel, cmd, rank))
			break
		}
	}
	if bl.head.DAddr.Row != row && !c.rowWanted(bk, row) {
		k = min(k, readyPRE)
	}
	return k
}
