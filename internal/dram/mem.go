package dram

import "fmt"

// bankState tracks one bank's row state and per-bank timing horizons.
// A horizon is the earliest cycle at which the named command may issue.
type bankState struct {
	open bool
	row  int

	nextACT int64
	nextPRE int64
	nextRD  int64
	nextWR  int64

	// Cached earliest-issue horizons folding the bank-group, rank, tFAW,
	// and refresh components (see rankState.horizons). Valid while
	// hzStamp equals the owning rank's stamp; every Issue touching the
	// rank bumps the stamp, invalidating all of its banks at once. With
	// the cache warm, CanIssue in a scheduler inner loop is a structural
	// check plus one int64 compare.
	hzStamp  int64
	readyACT int64
	readyPRE int64
	readyRD  int64
	readyWR  int64
}

// bgState tracks bank-group level horizons (tCCD_L, tRRD_L, tWTR_L).
type bgState struct {
	nextACT int64
	nextRD  int64
	nextWR  int64
}

// rankState tracks rank-level horizons shared by host and NDA accesses:
// cross-bank-group column spacing (tCCD_S), activation spacing (tRRD_S),
// the tFAW window, and internal data-path read/write turnaround.
type rankState struct {
	banks []bankState // flat: bg*BanksPerGroup + bank
	bgs   []bgState

	nextACT int64
	nextRD  int64
	nextWR  int64

	faw    []int64 // issue cycles of the last 4 ACTs (ring buffer)
	fawIdx int

	// stamp versions the rank's timing state for the per-bank horizon
	// cache. It starts at 1 (so zero-valued bank caches are invalid) and
	// is bumped by every Issue to the rank.
	stamp int64

	// rowStamp counts the rank's row-state changes (ACT, PRE, WarmOpen),
	// starting at 1. Schedulers learn which banks changed from the
	// channel's row log instead (chanState.rowLog); the count stays as
	// checkpointed state so the durable format is unchanged.
	rowStamp int64

	// dataBusyUntil is when the rank's data pins/internal IO finish the
	// current burst. Used for statistics and NDA idle detection.
	dataBusyUntil int64
	refreshUntil  int64
}

// horizons returns the bank's cached earliest-issue horizons, recomputing
// them from the authoritative per-bank/bank-group/rank state when any
// command has issued to the rank since the last computation.
func (rk *rankState) horizons(t *Timing, bgIdx, flat int) *bankState {
	b := &rk.banks[flat]
	if b.hzStamp == rk.stamp {
		return b
	}
	bg := &rk.bgs[bgIdx]
	ru := rk.refreshUntil
	b.readyACT = max(b.nextACT, bg.nextACT, rk.nextACT, rk.fawReady(t), ru)
	b.readyPRE = max(b.nextPRE, ru)
	b.readyRD = max(b.nextRD, bg.nextRD, rk.nextRD, ru)
	b.readyWR = max(b.nextWR, bg.nextWR, rk.nextWR, ru)
	b.hzStamp = rk.stamp
	return b
}

// chanState tracks channel-level constraints that apply only to external
// (host) accesses: the shared data bus and rank-switch penalties.
type chanState struct {
	ranks []rankState

	// Last external column command, for bus turnaround and tRTRS.
	lastColValid bool
	lastColRead  bool
	lastColRank  int
	lastColCycle int64

	dataBusyUntil int64
	nextRefresh   int64

	// Cached channel-bus horizons for external column commands, split by
	// whether the target rank matches the last column's rank. colStamp is
	// bumped by every external column issue; extStamp tracks the cached
	// values (colStamp starts at 1 so the zero cache is invalid).
	colStamp  int64
	extStamp  int64
	extRDSame int64
	extRDDiff int64
	extWRSame int64
	extWRDiff int64

	// Row-change log: every command that opens or closes a row (ACT,
	// PRE, WarmOpen) appends its channel-local bank, rank*BanksPerRank +
	// flat bank, at index rowSeq%RowLogLen and advances rowSeq. A row
	// change is the only event that can give a bank a new FR-FCFS
	// candidate or move a candidate's earliest-issue cycle EARLIER (an
	// ACT reassigns the bank's column/PRE horizons outright); it touches
	// no other bank's candidates, and column commands and REF only push
	// horizons forward. So a scheduler holding per-bank conclusions of
	// the form "bank b has no candidate ready before cycle T" (the mc
	// calendar's bucket keys) stays sound by revalidating exactly the
	// banks logged since it last looked. The log is fixed-size: a reader
	// that fell more than RowLogLen changes behind must presume every
	// bank changed. It is a value array, so snapshots copy it whole.
	rowLog [RowLogLen]int32
	rowSeq uint64
}

// RowLogLen is the number of row changes a channel's row log retains
// (see chanState.rowLog).
const RowLogLen = 64

// logRow records a row-state change of channel-local bank local
// (rank*BanksPerRank + flat bank).
func (ch *chanState) logRow(local int32) {
	ch.rowLog[ch.rowSeq%RowLogLen] = local
	ch.rowSeq++
}

// extCol returns the earliest cycle the channel bus admits an external
// column command of the given kind to the given rank (the channelColOK
// constraints folded into a single horizon).
func (ch *chanState) extCol(cmd Command, rank int, t *Timing) int64 {
	if ch.extStamp != ch.colStamp {
		busy := ch.dataBusyUntil
		if !ch.lastColValid {
			ch.extRDSame = busy - int64(t.CL)
			ch.extRDDiff = ch.extRDSame
			ch.extWRSame = busy - int64(t.CWL)
			ch.extWRDiff = ch.extWRSame
		} else {
			ch.extRDSame = busy - int64(t.CL)
			ch.extRDDiff = busy + int64(t.RTRS) - int64(t.CL)
			if !ch.lastColRead {
				// Write-to-read across ranks: bus-only constraint.
				ch.extRDDiff = max(ch.extRDDiff, ch.lastColCycle+int64(t.CWL+t.BL+t.RTRS-t.CL))
			}
			ch.extWRSame = busy - int64(t.CWL)
			ch.extWRDiff = busy + int64(t.RTRS) - int64(t.CWL)
			if ch.lastColRead {
				// Read-to-write bus turnaround, any rank.
				rtw := ch.lastColCycle + int64(t.ReadToWrite())
				ch.extWRSame = max(ch.extWRSame, rtw)
				ch.extWRDiff = max(ch.extWRDiff, rtw)
			}
		}
		ch.extStamp = ch.colStamp
	}
	same := !ch.lastColValid || ch.lastColRank == rank
	if cmd == CmdRD {
		if same {
			return ch.extRDSame
		}
		return ch.extRDDiff
	}
	if same {
		return ch.extWRSame
	}
	return ch.extWRDiff
}

// CmdCounts aggregates issued-command counters for energy and
// statistics. RD/WR are external (host) column commands; NDARD/NDAWR
// are internal (NDA) column commands.
type CmdCounts struct {
	ACT, PRE     int64
	RD, WR       int64
	NDARD, NDAWR int64
}

// add accumulates o into c.
func (c *CmdCounts) add(o CmdCounts) {
	c.ACT += o.ACT
	c.PRE += o.PRE
	c.RD += o.RD
	c.WR += o.WR
	c.NDARD += o.NDARD
	c.NDAWR += o.NDAWR
}

// Mem is the DDR4 memory system state machine. It validates and applies
// command timing; it does not schedule. Controllers (host and NDA side)
// call CanIssue/Issue.
//
// All mutable state — timing horizons, row state, command counters, and
// the chVer versions — is held per channel, and Issue touches only the
// addressed channel's share. Channels are therefore free of write
// sharing, which is what lets the sim package tick channel domains on
// concurrent workers.
type Mem struct {
	Geom Geometry
	T    Timing

	channels []chanState

	// cnts holds per-channel command counters (see CmdCounts); sharded
	// so concurrent channel domains never write the same counter.
	cnts []CmdCounts

	// chVer counts issued commands per channel: a version for any
	// conclusion cached from timing state (the system's per-controller
	// wake cache keys on it, since NDA commands move horizons the
	// channel's controller schedules against). Channels are timing-
	// independent, so one channel's traffic never invalidates another's
	// cached conclusions. It advances on every Issue and nothing else.
	chVer []uint64
}

// Counts sums the per-channel command counters.
func (m *Mem) Counts() CmdCounts {
	var t CmdCounts
	for i := range m.cnts {
		t.add(m.cnts[i])
	}
	return t
}

// ChannelCounts returns one channel's command counters.
func (m *Mem) ChannelCounts(ch int) CmdCounts { return m.cnts[ch] }

// New builds a Mem with the given geometry and timing. It panics on
// invalid configuration; configurations are programmer-supplied constants.
// Sweep drivers, whose geometry/timing arrive from user-reachable config,
// use NewChecked.
func New(g Geometry, t Timing) *Mem {
	m, err := NewChecked(g, t)
	if err != nil {
		panic(err)
	}
	return m
}

// NewChecked is New returning invalid geometry or timing as an error
// instead of panicking.
func NewChecked(g Geometry, t Timing) (*Mem, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := &Mem{Geom: g, T: t, channels: make([]chanState, g.Channels),
		cnts: make([]CmdCounts, g.Channels), chVer: make([]uint64, g.Channels)}
	for c := range m.channels {
		ch := &m.channels[c]
		ch.ranks = make([]rankState, g.Ranks)
		ch.colStamp = 1
		for r := range ch.ranks {
			rk := &ch.ranks[r]
			rk.banks = make([]bankState, g.BanksPerRank())
			rk.bgs = make([]bgState, g.BankGroups)
			rk.faw = make([]int64, 4)
			rk.stamp = 1
			rk.rowStamp = 1
			for i := range rk.faw {
				rk.faw[i] = -(1 << 40) // far past: window initially empty
			}
		}
	}
	return m, nil
}

func (m *Mem) rank(a Addr) *rankState { return &m.channels[a.Channel].ranks[a.Rank] }
func (m *Mem) bank(a Addr) *bankState { return &m.rank(a).banks[a.GlobalBank(m.Geom)] }
func (m *Mem) checkAddr(a Addr) {
	g := m.Geom
	if a.Channel < 0 || a.Channel >= g.Channels || a.Rank < 0 || a.Rank >= g.Ranks ||
		a.BankGroup < 0 || a.BankGroup >= g.BankGroups || a.Bank < 0 || a.Bank >= g.BanksPerGroup ||
		a.Row < 0 || a.Row >= g.Rows || a.Col < 0 || a.Col >= g.Cols {
		panic(fmt.Sprintf("dram: address out of range: %+v for geometry %+v", a, g))
	}
}

// OpenRow reports whether the addressed bank is open and, if so, which row.
func (m *Mem) OpenRow(a Addr) (row int, open bool) {
	b := m.bank(a)
	return b.row, b.open
}

// WarmOpen sets the addressed bank's row state — open at a.Row — at
// functional fidelity, modeling the activation the exact path would
// have performed for this access during a sampled-mode fast-forward
// jump (DESIGN.md §2.11). Timing horizons are left alone: the jump
// lands past every pre-jump horizon, so they are already dead. The
// rank's stamp and the channel command version advance and the bank is
// logged as a row change, so every cached scheduler conclusion derived
// from the old row state (per-bank horizon caches, mc calendar keys,
// NDA sleep bounds) is invalidated before detailed execution resumes.
func (m *Mem) WarmOpen(a Addr) {
	m.checkAddr(a)
	rk := m.rank(a)
	flat := a.GlobalBank(m.Geom)
	b := &rk.banks[flat]
	b.open = true
	b.row = a.Row
	rk.stamp++
	rk.rowStamp++
	m.channels[a.Channel].logRow(int32(a.Rank*m.Geom.BanksPerRank() + flat))
	m.chVer[a.Channel]++
}

// OpenBanks counts banks currently holding an open row, across all
// channels and ranks. A coarse row-state summary for warm-state
// fidelity checks of the sampled fast-forward path.
func (m *Mem) OpenBanks() int {
	n := 0
	for c := range m.channels {
		for r := range m.channels[c].ranks {
			banks := m.channels[c].ranks[r].banks
			for b := range banks {
				if banks[b].open {
					n++
				}
			}
		}
	}
	return n
}

// RankDataBusyUntil returns the cycle at which the rank's data path is free.
func (m *Mem) RankDataBusyUntil(channel, rank int) int64 {
	return m.channels[channel].ranks[rank].dataBusyUntil
}

// ChannelDataBusyUntil returns the cycle at which the channel bus is free.
func (m *Mem) ChannelDataBusyUntil(channel int) int64 {
	return m.channels[channel].dataBusyUntil
}

// ChVer returns the channel's issued-command version (see chVer).
func (m *Mem) ChVer(channel int) uint64 { return m.chVer[channel] }

// RankStamp returns a version counter for the rank's timing and row
// state: it advances on every command issued to the rank and on nothing
// else. A scheduler caching per-bank conclusions ("request r's column is
// ready at cycle T", "bank b needs an ACT") may reuse them while the
// stamp is unchanged — commands to other ranks cannot move this rank's
// bank, bank-group, rank, tFAW, or refresh horizons. Channel-bus
// constraints are NOT covered; combine with ExtColReady.
func (m *Mem) RankStamp(channel, rank int) int64 {
	return m.channels[channel].ranks[rank].stamp
}

// RowSeq returns the channel's row-change sequence: how many row-state
// changes (ACT, PRE, WarmOpen) its row log has recorded. See
// chanState.rowLog for the staleness contract the log grants
// schedulers.
func (m *Mem) RowSeq(channel int) uint64 { return m.channels[channel].rowSeq }

// RowChange returns the channel-local bank, rank*BanksPerRank + flat
// bank, of the channel's row change numbered seq. The log retains the
// last RowLogLen changes: seq must lie in [RowSeq-RowLogLen, RowSeq).
func (m *Mem) RowChange(channel int, seq uint64) int32 {
	return m.channels[channel].rowLog[seq%RowLogLen]
}

// BankSched returns the addressed bank's row state together with every
// cached rank-side earliest-issue horizon (see rankState.horizons) in
// one call — the scheduler's per-bank recompute input. Horizons are raw
// (not clamped to any current cycle); callers compare them against now.
// Channel-bus constraints for external columns are separate
// (ExtColReady).
func (m *Mem) BankSched(channel, rank, bankGroup, flat int) (row int, open bool, readyACT, readyPRE, readyRD, readyWR int64) {
	b := m.channels[channel].ranks[rank].horizons(&m.T, bankGroup, flat)
	return b.row, b.open, b.readyACT, b.readyPRE, b.readyRD, b.readyWR
}

// ExtColReady returns the earliest cycle the channel bus admits an
// external column command of the given kind to the given rank: the
// bus-occupancy, tRTRS rank-switch, and read/write turnaround horizons
// folded into one value (O(1), cached per channel). Together with the
// rank-side bound from NextIssue(cmd, a, now, true) it reconstructs the
// full external column horizon.
func (m *Mem) ExtColReady(channel int, cmd Command, rank int) int64 {
	return m.channels[channel].extCol(cmd, rank, &m.T)
}

// fawReady returns the earliest cycle an ACT may issue under tFAW.
func (r *rankState) fawReady(t *Timing) int64 {
	// The ring holds the last 4 ACT times; the next slot is the oldest.
	return r.faw[r.fawIdx] + int64(t.FAW)
}

// CanIssue reports whether cmd to address a may legally issue at cycle now.
// internal marks NDA-side column accesses, which skip channel-bus checks.
//
// The check runs off the per-bank horizon cache: a structural test on the
// bank's row state plus int64 compares against cached earliest-issue
// cycles. canIssueRef is the uncached oracle the cache is verified
// against (TestCanIssueCacheMatchesReference).
func (m *Mem) CanIssue(cmd Command, a Addr, now int64, internal bool) bool {
	m.checkAddr(a)
	ch := &m.channels[a.Channel]
	rk := &ch.ranks[a.Rank]
	flat := a.GlobalBank(m.Geom)

	switch cmd {
	case CmdACT:
		if rk.banks[flat].open {
			return false
		}
		return now >= rk.horizons(&m.T, a.BankGroup, flat).readyACT

	case CmdPRE:
		if !rk.banks[flat].open {
			return false
		}
		return now >= rk.horizons(&m.T, a.BankGroup, flat).readyPRE

	case CmdRD, CmdWR:
		if b := &rk.banks[flat]; !b.open || b.row != a.Row {
			return false
		}
		hz := rk.horizons(&m.T, a.BankGroup, flat)
		if cmd == CmdRD {
			if now < hz.readyRD {
				return false
			}
		} else if now < hz.readyWR {
			return false
		}
		if internal {
			return true
		}
		return now >= ch.extCol(cmd, a.Rank, &m.T)

	case CmdREF:
		if now < rk.refreshUntil {
			return false
		}
		// All banks of the rank must be precharged.
		for i := range rk.banks {
			if rk.banks[i].open {
				return false
			}
		}
		return now >= rk.nextACT
	}
	return false
}

// canIssueRef is the original uncached CanIssue, kept as the oracle for
// the horizon-cache equivalence tests.
func (m *Mem) canIssueRef(cmd Command, a Addr, now int64, internal bool) bool {
	m.checkAddr(a)
	ch := &m.channels[a.Channel]
	rk := &ch.ranks[a.Rank]
	bg := &rk.bgs[a.BankGroup]
	b := &rk.banks[a.GlobalBank(m.Geom)]
	if now < rk.refreshUntil {
		return false
	}

	switch cmd {
	case CmdACT:
		if b.open {
			return false
		}
		if now < b.nextACT || now < bg.nextACT || now < rk.nextACT {
			return false
		}
		return now >= rk.fawReady(&m.T)

	case CmdPRE:
		if !b.open {
			return false
		}
		return now >= b.nextPRE

	case CmdRD, CmdWR:
		if !b.open || b.row != a.Row {
			return false
		}
		var bankNext, bgNext, rkNext int64
		if cmd == CmdRD {
			bankNext, bgNext, rkNext = b.nextRD, bg.nextRD, rk.nextRD
		} else {
			bankNext, bgNext, rkNext = b.nextWR, bg.nextWR, rk.nextWR
		}
		if now < bankNext || now < bgNext || now < rkNext {
			return false
		}
		if internal {
			return true
		}
		return m.channelColOK(ch, cmd, a, now)

	case CmdREF:
		// All banks of the rank must be precharged.
		for i := range rk.banks {
			if rk.banks[i].open {
				return false
			}
		}
		return now >= rk.nextACT
	}
	return false
}

// channelColOK checks external data-bus constraints: burst overlap on the
// shared bus, tRTRS rank switches, and read/write bus turnaround.
func (m *Mem) channelColOK(ch *chanState, cmd Command, a Addr, now int64) bool {
	t := &m.T
	var start int64
	if cmd == CmdRD {
		start = now + int64(t.CL)
	} else {
		start = now + int64(t.CWL)
	}
	busFree := ch.dataBusyUntil
	if ch.lastColValid && ch.lastColRank != a.Rank {
		busFree += int64(t.RTRS)
	}
	if start < busFree {
		return false
	}
	if !ch.lastColValid {
		return true
	}
	gap := now - ch.lastColCycle
	switch {
	case ch.lastColRead && cmd == CmdWR:
		// Read-to-write bus turnaround, any rank.
		if gap < int64(t.ReadToWrite()) {
			return false
		}
	case !ch.lastColRead && cmd == CmdRD && ch.lastColRank != a.Rank:
		// Write-to-read across ranks: bus constraint only (same-rank
		// WTR is enforced by rank state).
		if gap < int64(t.CWL+t.BL+t.RTRS-t.CL) {
			return false
		}
	}
	return true
}

// Never is a sentinel cycle meaning "no upcoming event": components
// return it from NextEvent/NextIssue when they cannot act without new
// external stimulus.
const Never = int64(^uint64(0) >> 1)

// NextIssue returns the earliest cycle t >= now at which CanIssue(cmd,
// a, t, internal) can become true, assuming no further commands issue to
// the memory in the meantime. The bound is exact for column commands on
// both the internal (NDA) and external (host) paths — channel-bus
// turnaround and tRTRS are folded in for external accesses. Commands
// that are structurally blocked in the current bank state (ACT on an
// open bank, PRE or column on a closed or row-mismatched one)
// conservatively return now: they need an intervening command to become
// legal, which is itself an event.
func (m *Mem) NextIssue(cmd Command, a Addr, now int64, internal bool) int64 {
	m.checkAddr(a)
	ch := &m.channels[a.Channel]
	rk := &ch.ranks[a.Rank]
	flat := a.GlobalBank(m.Geom)
	b := &rk.banks[flat]

	switch cmd {
	case CmdACT:
		if b.open {
			return now
		}
		return max(now, rk.horizons(&m.T, a.BankGroup, flat).readyACT)

	case CmdPRE:
		if !b.open {
			return now
		}
		return max(now, rk.horizons(&m.T, a.BankGroup, flat).readyPRE)

	case CmdRD, CmdWR:
		if !b.open || b.row != a.Row {
			return now
		}
		hz := rk.horizons(&m.T, a.BankGroup, flat)
		ready := hz.readyRD
		if cmd == CmdWR {
			ready = hz.readyWR
		}
		if !internal {
			ready = max(ready, ch.extCol(cmd, a.Rank, &m.T))
		}
		return max(now, ready)

	case CmdREF:
		for i := range rk.banks {
			if rk.banks[i].open {
				return now
			}
		}
		return max(now, rk.refreshUntil, rk.nextACT)
	}
	return now
}

// Issue applies cmd at cycle now, updating all affected timing horizons.
// It panics if the command is illegal; callers must CanIssue first.
func (m *Mem) Issue(cmd Command, a Addr, now int64, internal bool) {
	if !m.CanIssue(cmd, a, now, internal) {
		panic(fmt.Sprintf("dram: illegal %v to %+v at cycle %d (internal=%v)", cmd, a, now, internal))
	}
	t := &m.T
	ch := &m.channels[a.Channel]
	rk := &ch.ranks[a.Rank]
	flat := a.GlobalBank(m.Geom)
	b := &rk.banks[flat]
	cn := &m.cnts[a.Channel]
	m.chVer[a.Channel]++
	rk.stamp++ // invalidate the rank's bank horizon caches

	maxi := func(p *int64, v int64) {
		if v > *p {
			*p = v
		}
	}

	switch cmd {
	case CmdACT:
		cn.ACT++
		rk.rowStamp++
		ch.logRow(int32(a.Rank*m.Geom.BanksPerRank() + flat))
		b.open = true
		b.row = a.Row
		b.nextRD = now + int64(t.RCD)
		b.nextWR = now + int64(t.RCD)
		b.nextPRE = now + int64(t.RAS)
		b.nextACT = now + int64(t.RC)
		for g := range rk.bgs {
			d := int64(t.RRDS)
			if g == a.BankGroup {
				d = int64(t.RRDL)
			}
			maxi(&rk.bgs[g].nextACT, now+d)
		}
		maxi(&rk.nextACT, now+int64(t.RRDS))
		rk.faw[rk.fawIdx] = now
		rk.fawIdx = (rk.fawIdx + 1) % 4

	case CmdPRE:
		cn.PRE++
		rk.rowStamp++
		ch.logRow(int32(a.Rank*m.Geom.BanksPerRank() + flat))
		b.open = false
		maxi(&b.nextACT, now+int64(t.RP))

	case CmdRD:
		if internal {
			cn.NDARD++
		} else {
			cn.RD++
		}
		maxi(&b.nextPRE, now+int64(t.RTP))
		for g := range rk.bgs {
			d := int64(t.CCDS)
			if g == a.BankGroup {
				d = int64(t.CCDL)
			}
			maxi(&rk.bgs[g].nextRD, now+d)
			maxi(&rk.bgs[g].nextWR, now+d)
		}
		// Read-to-write turnaround on the rank's data path applies to
		// both host and NDA accesses sharing that path.
		maxi(&rk.nextWR, now+int64(t.ReadToWrite()))
		end := now + int64(t.CL) + int64(t.BL)
		maxi(&rk.dataBusyUntil, end)
		if !internal {
			ch.dataBusyUntil = end
			ch.lastColValid = true
			ch.lastColRead = true
			ch.lastColRank = a.Rank
			ch.lastColCycle = now
			ch.colStamp++
		}

	case CmdWR:
		if internal {
			cn.NDAWR++
		} else {
			cn.WR++
		}
		maxi(&b.nextPRE, now+int64(t.CWL+t.BL+t.WR))
		for g := range rk.bgs {
			ccd := int64(t.CCDS)
			wtr := int64(t.WriteToReadDiffBG())
			if g == a.BankGroup {
				ccd = int64(t.CCDL)
				wtr = int64(t.WriteToReadSameBG())
			}
			maxi(&rk.bgs[g].nextWR, now+ccd)
			maxi(&rk.bgs[g].nextRD, now+wtr)
		}
		end := now + int64(t.CWL) + int64(t.BL)
		maxi(&rk.dataBusyUntil, end)
		if !internal {
			ch.dataBusyUntil = end
			ch.lastColValid = true
			ch.lastColRead = false
			ch.lastColRank = a.Rank
			ch.lastColCycle = now
			ch.colStamp++
		}

	case CmdREF:
		rk.refreshUntil = now + int64(t.RFC)
		maxi(&rk.nextACT, rk.refreshUntil)
	}
}

// ReadLatency returns cycles from RD issue to the end of the data burst.
func (m *Mem) ReadLatency() int64 { return int64(m.T.CL + m.T.BL) }

// WriteLatency returns cycles from WR issue to the end of the data burst.
func (m *Mem) WriteLatency() int64 { return int64(m.T.CWL + m.T.BL) }
