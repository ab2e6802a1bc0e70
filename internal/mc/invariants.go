package mc

import (
	"fmt"

	"chopim/internal/dram"
)

// Opt-in structural and conservation checks behind sim's
// Config.CheckInvariants. Everything here is cold-path: it runs at
// commit barriers when armed and never during normal scheduling, so it
// may allocate scratch freely.

// Validate rejects controller configurations the scheduler cannot run
// with. User-reachable (sweep points carry an mc.Config), so errors,
// not panics.
func (cfg Config) Validate() error {
	if cfg.ReadQueue <= 0 || cfg.WriteQueue <= 0 {
		return fmt.Errorf("mc: queue sizes must be positive (ReadQueue=%d WriteQueue=%d)",
			cfg.ReadQueue, cfg.WriteQueue)
	}
	if cfg.DrainLow < 0 || cfg.DrainHigh <= cfg.DrainLow || cfg.DrainHigh > cfg.WriteQueue {
		return fmt.Errorf("mc: drain watermarks must satisfy 0 <= DrainLow < DrainHigh <= WriteQueue (DrainLow=%d DrainHigh=%d WriteQueue=%d)",
			cfg.DrainLow, cfg.DrainHigh, cfg.WriteQueue)
	}
	return nil
}

// OverflowLen returns the write-overflow buffer's occupancy (writebacks
// accepted beyond the write queue, not yet drained into it).
func (c *Controller) OverflowLen() int { return c.overflow.Len() }

// CheckInvariants validates the controller's internal consistency: the
// arrival lists against the occupancy counters and per-bank buckets,
// the dense scheduling cache against the occupied set, and the calendar
// (see checkCalendar). Returns the first violation found, nil when
// consistent.
func (c *Controller) CheckInvariants() error {
	if err := c.checkQueue(&c.rq, "rq", c.cfg.ReadQueue, dram.CmdRD); err != nil {
		return err
	}
	return c.checkQueue(&c.wq, "wq", c.cfg.WriteQueue, dram.CmdWR)
}

func (c *Controller) checkQueue(q *reqQueue, name string, capacity int, cmd dram.Command) error {
	if q.n > capacity {
		return fmt.Errorf("%s occupancy %d exceeds capacity %d", name, q.n, capacity)
	}

	// Arrival list: length, link symmetry, FR-FCFS age order, and the
	// per-group / per-bank tallies every O(1) hook reads.
	perBank := make(map[int32]int)
	perGroup := make(map[int32]int)
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
		wantKey := int32((r.DAddr.Channel*c.nrank+r.DAddr.Rank)*c.bpr + r.DAddr.GlobalBank(c.mem.Geom))
		if r.bankKey != wantKey {
			return fmt.Errorf("%s request seq %d: bankKey %d != decoded %d", name, r.seq, r.bankKey, wantKey)
		}
		perBank[r.bankKey]++
		perGroup[r.bankKey>>q.shift]++
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
	for g, n := range q.rankN {
		if n != perGroup[int32(g)] {
			return fmt.Errorf("%s rankN[%d]=%d but arrival list holds %d for the group", name, g, n, perGroup[int32(g)])
		}
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
	return c.checkCalendar(q, name, cmd)
}

// checkCalendar validates one queue's calendar: membership (every
// occupied bank in exactly one region, bitmap in sync with slot heads,
// keys inside their region's range) and — for banks with no row change
// pending in the channel's row log — key soundness against a fresh
// rescan of the bank's candidates: a bucketed, overflowed or parked
// bank's key lower-bounds its earliest issuable candidate, and a bank
// held out of the ready region with a ready PRE is one the open-page
// rule blocks.
func (c *Controller) checkCalendar(q *reqQueue, name string, cmd dram.Command) error {
	seen := make(map[int32]string)
	mark := func(bk int32, where string) error {
		if w, dup := seen[bk]; dup {
			return fmt.Errorf("%s bank %d on both %s and %s calendar regions", name, bk, w, where)
		}
		seen[bk] = where
		return nil
	}
	for bk := q.calReady; bk != -1; bk = q.calNext[bk] {
		if q.calWhere[bk] != calInReady {
			return fmt.Errorf("%s bank %d on ready list with calWhere=%d", name, bk, q.calWhere[bk])
		}
		if err := mark(bk, "ready"); err != nil {
			return err
		}
	}
	for bk := q.calOver; bk != -1; bk = q.calNext[bk] {
		if q.calWhere[bk] != calInOver {
			return fmt.Errorf("%s bank %d on overflow list with calWhere=%d", name, bk, q.calWhere[bk])
		}
		if q.calKey[bk]-q.calBase < calSlots {
			return fmt.Errorf("%s bank %d on overflow with in-window key %d (base %d)", name, bk, q.calKey[bk], q.calBase)
		}
		if err := mark(bk, "overflow"); err != nil {
			return err
		}
	}
	inRing := 0
	for s := 0; s < calSlots; s++ {
		headSet := q.calBkt[s] != -1
		bitSet := q.calBits[s>>6]&(1<<uint(s&63)) != 0
		if headSet != bitSet {
			return fmt.Errorf("%s calendar slot %d: bitmap=%v but head set=%v", name, s, bitSet, headSet)
		}
		for bk := q.calBkt[s]; bk != -1; bk = q.calNext[bk] {
			if q.calWhere[bk] != calBucket {
				return fmt.Errorf("%s bank %d in ring slot %d with calWhere=%d", name, bk, s, q.calWhere[bk])
			}
			k := q.calKey[bk]
			if k < q.calBase || k-q.calBase >= calSlots {
				return fmt.Errorf("%s bank %d ring key %d outside window [%d,%d)", name, bk, k, q.calBase, q.calBase+calSlots)
			}
			if int(k)&calMask != s {
				return fmt.Errorf("%s bank %d key %d filed in slot %d, expected %d", name, bk, k, s, int(k)&calMask)
			}
			if err := mark(bk, "ring"); err != nil {
				return err
			}
			inRing++
		}
	}
	if inRing != q.calCount {
		return fmt.Errorf("%s calCount=%d but ring holds %d banks", name, q.calCount, inRing)
	}
	for _, bk := range q.occ {
		if q.calWhere[bk] != calParked {
			continue
		}
		if q.calKey[bk] != dram.Never {
			return fmt.Errorf("%s bank %d parked with key %d", name, bk, q.calKey[bk])
		}
		if err := mark(bk, "parked"); err != nil {
			return err
		}
	}
	for _, bk := range q.occ {
		if _, ok := seen[bk]; !ok {
			return fmt.Errorf("%s occupied bank %d is on no calendar region", name, bk)
		}
	}
	if len(seen) != len(q.occ) {
		return fmt.Errorf("%s calendar tracks %d banks but %d are occupied", name, len(seen), len(q.occ))
	}

	// Key soundness, spot-checked against a fresh rescan of each bank's
	// candidates. Banks with a row change the queue has not yet
	// replayed from the channel's row log are exempt: calSync parks
	// them ready before any decision, so until then a stale-high key is
	// legitimate — and when the log no longer covers the span since the
	// queue's last sync, every bank is pending. Ready banks carry no key
	// contract (the scan revalidates them), and the rescan paths
	// (cross-channel harnesses, reference scheduler) never consult keys
	// at all.
	if c.cross || c.refSched {
		return nil
	}
	seq := c.mem.RowSeq(c.channel)
	if seq-q.rowSeen > dram.RowLogLen {
		return nil
	}
	pending := make(map[int32]bool)
	base := int32(c.channel * c.nrank * c.bpr)
	for s := q.rowSeen; s < seq; s++ {
		pending[base+c.mem.RowChange(c.channel, s)] = true
	}
	synced := q.calBase - 1 // the tick of the queue's last calSync
	for _, bk := range q.occ {
		if q.calWhere[bk] == calInReady || pending[bk] {
			continue
		}
		oracle, freePRE := c.bankOracle(q, bk, cmd)
		if freePRE <= synced {
			return fmt.Errorf("%s bank %d held out of the ready region with a PRE ready at %d (synced %d) that no queued request blocks",
				name, bk, freePRE, synced)
		}
		if q.calKey[bk] > oracle {
			return fmt.Errorf("%s bank %d calendar key %d exceeds rescan-oracle ready cycle %d (lower bound violated)",
				name, bk, q.calKey[bk], oracle)
		}
		if e := &q.sched[q.occPos[bk]]; e.preBlocked && (e.p2Cmd != dram.CmdPRE || !c.rowWanted(e.p2.DAddr, int(e.p2Row))) {
			return fmt.Errorf("%s bank %d marked preBlocked but the open-page rule no longer blocks its PRE", name, bk)
		}
	}
	return nil
}

// bankOracle recomputes the bank's earliest issuable-candidate cycle
// the way the rescan oracle would — a fresh bucket scan against fresh
// horizons, min(max(p1 column ready, channel bus), p2 row-command
// ready), with a PRE the open-page rule blocks (rowWanted) excluded —
// without touching the cached entry. freePRE is the ready cycle of a
// PRE candidate the rule does not block (Never when there is none).
func (c *Controller) bankOracle(q *reqQueue, bk int32, cmd dram.Command) (k, freePRE int64) {
	flat := int(bk) % c.bpr
	rank := int(bk)/c.bpr - c.channel*c.nrank
	row, open, readyACT, readyPRE, readyRD, readyWR := c.mem.BankSched(
		c.channel, rank, flat/c.bpg, flat)
	if !open {
		return readyACT, dram.Never
	}
	col := readyRD
	if cmd == dram.CmdWR {
		col = readyWR
	}
	bl := &q.banks[bk]
	k, freePRE = dram.Never, dram.Never
	for r := bl.head; r != nil; r = r.bnext {
		if r.DAddr.Row == row {
			k = max(col, c.mem.ExtColReady(c.channel, cmd, rank))
			break
		}
	}
	if bl.head.DAddr.Row != row && !c.rowWanted(bl.head.DAddr, row) {
		freePRE = readyPRE
	}
	return min(k, freePRE), freePRE
}
