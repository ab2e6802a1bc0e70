package dram

import "fmt"

// bankState tracks one bank's row state and per-bank timing horizons.
// A horizon is the earliest cycle at which the named command may issue.
type bankState struct {
	Open bool
	Row  int

	NextACT int64
	NextPRE int64
	NextRD  int64
	NextWR  int64
}

// bgState tracks bank-group level horizons (tCCD_L, tRRD_L, tWTR_L).
type bgState struct {
	NextACT int64
	NextRD  int64
	NextWR  int64
}

// rankState tracks rank-level horizons shared by host and NDA accesses:
// cross-bank-group column spacing (tCCD_S), activation spacing (tRRD_S),
// the tFAW window, and internal data-path read/write turnaround.
type rankState struct {
	Banks []bankState // flat: bg*BanksPerGroup + bank
	BGs   []bgState

	NextACT int64
	NextRD  int64
	NextWR  int64

	FAW    []int64 // issue cycles of the last 4 ACTs (ring buffer)
	FAWIdx int
}

// readyACT folds the bank's earliest ACT cycle from the bank, bank-group,
// rank and tFAW horizons on every call; nothing is cached.
func (rk *rankState) readyACT(t *Timing, bgIdx, flat int) int64 {
	return max(rk.Banks[flat].NextACT, rk.BGs[bgIdx].NextACT, rk.NextACT, rk.fawReady(t))
}

// readyCol folds the bank's earliest column cycle for cmd (RD or WR)
// from the bank, bank-group and rank horizons on every call.
func (rk *rankState) readyCol(cmd Command, bgIdx, flat int) int64 {
	b, bg := &rk.Banks[flat], &rk.BGs[bgIdx]
	if cmd == CmdRD {
		return max(b.NextRD, bg.NextRD, rk.NextRD)
	}
	return max(b.NextWR, bg.NextWR, rk.NextWR)
}

// chanState tracks channel-level constraints that apply only to external
// (host) accesses: the shared data bus and rank-switch penalties.
type chanState struct {
	Ranks []rankState

	// Last external column command, for bus turnaround and tRTRS.
	LastColValid bool
	LastColRead  bool
	LastColRank  int
	LastColCycle int64

	DataBusyUntil int64

	// Row-change log: every command that opens or closes a row (ACT,
	// PRE, WarmOpen) appends its channel-local bank, rank*BanksPerRank +
	// flat bank, at index rowSeq%RowLogLen and advances rowSeq. A row
	// change is the only event that can give a bank a new FR-FCFS
	// candidate or move a candidate's earliest-issue cycle EARLIER (an
	// ACT reassigns the bank's column/PRE horizons outright); it touches
	// no other bank's candidates, and column commands only push horizons
	// forward. So a scheduler holding per-bank conclusions of
	// the form "bank b has no candidate ready before cycle T" (the mc
	// controller's lazy bank keys) stays sound by revalidating exactly
	// the banks logged since it last looked. The log is fixed-size: a reader
	// that fell more than RowLogLen changes behind must presume every
	// bank changed. It is a value array, so snapshots copy it whole. It
	// is not durable: a decoded checkpoint restores an empty log, which
	// the controllers restored with it never read (their rebuilt queues
	// start every bank's key at -1, "revalidate"; see mc sync).
	rowLog [RowLogLen]int32 `json:"-"`
	rowSeq uint64           `json:"-"`
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
// column command of the given kind to the given rank: the channelColOK
// constraints folded into one horizon, on demand.
func (ch *chanState) extCol(cmd Command, rank int, t *Timing) int64 {
	lat := int64(t.CWL)
	if cmd == CmdRD {
		lat = int64(t.CL)
	}
	ready := ch.DataBusyUntil - lat
	if !ch.LastColValid {
		return ready
	}
	if ch.LastColRank != rank {
		ready += int64(t.RTRS)
		if !ch.LastColRead && cmd == CmdRD {
			// Write-to-read across ranks: bus-only constraint.
			ready = max(ready, ch.LastColCycle+int64(t.CWL+t.BL+t.RTRS-t.CL))
		}
	}
	if ch.LastColRead && cmd == CmdWR {
		// Read-to-write bus turnaround, any rank.
		ready = max(ready, ch.LastColCycle+int64(t.ReadToWrite()))
	}
	return ready
}

// CmdCounts aggregates issued-command counters for energy and
// statistics. RD/WR are external (host) column commands; NDARD/NDAWR
// are internal (NDA) column commands.
type CmdCounts struct {
	ACT, PRE     int64
	RD, WR       int64
	NDARD, NDAWR int64
}

// Mem is the DDR4 memory system state machine. It validates and applies
// command timing; it does not schedule. Controllers (host and NDA side)
// call CanIssue/Issue.
//
// Timing horizons, row state and the row-change log are held per
// channel, and Issue touches only the addressed channel's share and the
// command counters.
type Mem struct {
	Geom Geometry
	T    Timing

	channels []chanState
	cnts     CmdCounts
}

// Counts returns the command counters.
func (m *Mem) Counts() CmdCounts { return m.cnts }

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
	m := &Mem{Geom: g, T: t, channels: make([]chanState, g.Channels)}
	for c := range m.channels {
		ch := &m.channels[c]
		ch.Ranks = make([]rankState, g.Ranks)
		for r := range ch.Ranks {
			rk := &ch.Ranks[r]
			rk.Banks = make([]bankState, g.BanksPerRank())
			rk.BGs = make([]bgState, g.BankGroups)
			rk.FAW = make([]int64, 4)
			for i := range rk.FAW {
				rk.FAW[i] = -(1 << 40) // far past: window initially empty
			}
		}
	}
	return m, nil
}

func (m *Mem) rank(a Addr) *rankState { return &m.channels[a.Channel].Ranks[a.Rank] }
func (m *Mem) bank(a Addr) *bankState { return &m.rank(a).Banks[a.GlobalBank(m.Geom)] }
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
	return b.Row, b.Open
}

// WarmOpen sets the addressed bank's row state — open at a.Row —
// without issuing a command: an out-of-band row change. Timing horizons
// are left alone. The bank is logged as a row change, so every cached
// scheduler conclusion derived from the old row state (the mc lazy bank
// keys) must be revalidated. No simulation path calls it. The mc key
// and memo equivalence tests use it to inject such a change, and a
// burst of more than RowLogLen of them to force the row-log overflow
// resync. That resync stays reachable in production: the log can wrap
// during a long idle stretch, and a device restored behind the queue
// forces it too (see mc sync).
func (m *Mem) WarmOpen(a Addr) {
	m.checkAddr(a)
	rk := m.rank(a)
	flat := a.GlobalBank(m.Geom)
	b := &rk.Banks[flat]
	b.Open = true
	b.Row = a.Row
	m.channels[a.Channel].logRow(int32(a.Rank*m.Geom.BanksPerRank() + flat))
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
// rank-side earliest-issue horizon (rankState.readyACT, readyCol) in one
// call — what the host scheduler reads on every bank visit, keeping no
// copy of its own. Horizons are raw
// (not clamped to any current cycle); callers compare them against now.
// Channel-bus constraints for external columns are separate
// (ExtColReady).
func (m *Mem) BankSched(channel, rank, bankGroup, flat int) (row int, open bool, readyACT, readyPRE, readyRD, readyWR int64) {
	rk := &m.channels[channel].Ranks[rank]
	b := &rk.Banks[flat]
	return b.Row, b.Open, rk.readyACT(&m.T, bankGroup, flat), b.NextPRE,
		rk.readyCol(CmdRD, bankGroup, flat), rk.readyCol(CmdWR, bankGroup, flat)
}

// ExtColReady returns the earliest cycle the channel bus admits an
// external column command of the given kind to the given rank: the
// bus-occupancy, tRTRS rank-switch, and read/write turnaround horizons
// folded into one value. Together with the rank-side bound from
// NextIssue(cmd, a, now, true) it reconstructs the full external column
// horizon.
func (m *Mem) ExtColReady(channel int, cmd Command, rank int) int64 {
	return m.channels[channel].extCol(cmd, rank, &m.T)
}

// fawReady returns the earliest cycle an ACT may issue under tFAW.
func (r *rankState) fawReady(t *Timing) int64 {
	// The ring holds the last 4 ACT times; the next slot is the oldest.
	return r.FAW[r.FAWIdx] + int64(t.FAW)
}

// CanIssue reports whether cmd to address a may legally issue at cycle now.
// internal marks NDA-side column accesses, which skip channel-bus checks.
//
// The check is a structural test on the bank's row state plus one
// compare against the bank's horizons, folded on demand (and the
// channel-bus horizon for external columns). canIssueRef is the
// rule-by-rule oracle it is verified against
// (TestCanIssueCacheMatchesReference).
func (m *Mem) CanIssue(cmd Command, a Addr, now int64, internal bool) bool {
	m.checkAddr(a)
	ch := &m.channels[a.Channel]
	return m.legal(ch, &ch.Ranks[a.Rank], a.GlobalBank(m.Geom), cmd, a, now, internal)
}

// legal is CanIssue on an already resolved channel, rank and flat bank.
func (m *Mem) legal(ch *chanState, rk *rankState, flat int, cmd Command, a Addr, now int64, internal bool) bool {
	switch cmd {
	case CmdACT:
		if rk.Banks[flat].Open {
			return false
		}
		return now >= rk.readyACT(&m.T, a.BankGroup, flat)

	case CmdPRE:
		if !rk.Banks[flat].Open {
			return false
		}
		return now >= rk.Banks[flat].NextPRE

	case CmdRD, CmdWR:
		if b := &rk.Banks[flat]; !b.Open || b.Row != a.Row {
			return false
		}
		if now < rk.readyCol(cmd, a.BankGroup, flat) {
			return false
		}
		if internal {
			return true
		}
		return now >= ch.extCol(cmd, a.Rank, &m.T)
	}
	return false
}

// canIssueRef is CanIssue checked rule by rule, kept as the oracle for
// the folded-horizon equivalence tests.
func (m *Mem) canIssueRef(cmd Command, a Addr, now int64, internal bool) bool {
	m.checkAddr(a)
	ch := &m.channels[a.Channel]
	rk := &ch.Ranks[a.Rank]
	bg := &rk.BGs[a.BankGroup]
	b := &rk.Banks[a.GlobalBank(m.Geom)]

	switch cmd {
	case CmdACT:
		if b.Open {
			return false
		}
		if now < b.NextACT || now < bg.NextACT || now < rk.NextACT {
			return false
		}
		return now >= rk.fawReady(&m.T)

	case CmdPRE:
		if !b.Open {
			return false
		}
		return now >= b.NextPRE

	case CmdRD, CmdWR:
		if !b.Open || b.Row != a.Row {
			return false
		}
		var bankNext, bgNext, rkNext int64
		if cmd == CmdRD {
			bankNext, bgNext, rkNext = b.NextRD, bg.NextRD, rk.NextRD
		} else {
			bankNext, bgNext, rkNext = b.NextWR, bg.NextWR, rk.NextWR
		}
		if now < bankNext || now < bgNext || now < rkNext {
			return false
		}
		if internal {
			return true
		}
		return m.channelColOK(ch, cmd, a, now)
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
	busFree := ch.DataBusyUntil
	if ch.LastColValid && ch.LastColRank != a.Rank {
		busFree += int64(t.RTRS)
	}
	if start < busFree {
		return false
	}
	if !ch.LastColValid {
		return true
	}
	gap := now - ch.LastColCycle
	switch {
	case ch.LastColRead && cmd == CmdWR:
		// Read-to-write bus turnaround, any rank.
		if gap < int64(t.ReadToWrite()) {
			return false
		}
	case !ch.LastColRead && cmd == CmdRD && ch.LastColRank != a.Rank:
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
	rk := &ch.Ranks[a.Rank]
	flat := a.GlobalBank(m.Geom)
	b := &rk.Banks[flat]

	switch cmd {
	case CmdACT:
		if b.Open {
			return now
		}
		return max(now, rk.readyACT(&m.T, a.BankGroup, flat))

	case CmdPRE:
		if !b.Open {
			return now
		}
		return max(now, b.NextPRE)

	case CmdRD, CmdWR:
		if !b.Open || b.Row != a.Row {
			return now
		}
		ready := rk.readyCol(cmd, a.BankGroup, flat)
		if !internal {
			ready = max(ready, ch.extCol(cmd, a.Rank, &m.T))
		}
		return max(now, ready)
	}
	return now
}

// Issue applies cmd at cycle now, updating all affected timing horizons.
// It panics if the command is illegal; callers must CanIssue first, or
// call TryIssue.
func (m *Mem) Issue(cmd Command, a Addr, now int64, internal bool) {
	if !m.TryIssue(cmd, a, now, internal) {
		panic(fmt.Sprintf("dram: illegal %v to %+v at cycle %d (internal=%v)", cmd, a, now, internal))
	}
}

// TryIssue applies cmd at cycle now when CanIssue admits it and reports
// whether it did: one address check and one bank lookup for both the
// legality check and the update. An illegal command changes nothing.
func (m *Mem) TryIssue(cmd Command, a Addr, now int64, internal bool) bool {
	m.checkAddr(a)
	t := &m.T
	ch := &m.channels[a.Channel]
	rk := &ch.Ranks[a.Rank]
	flat := a.GlobalBank(m.Geom)
	if !m.legal(ch, rk, flat, cmd, a, now, internal) {
		return false
	}
	b := &rk.Banks[flat]
	cn := &m.cnts

	maxi := func(p *int64, v int64) {
		if v > *p {
			*p = v
		}
	}

	switch cmd {
	case CmdACT:
		cn.ACT++
		ch.logRow(int32(a.Rank*m.Geom.BanksPerRank() + flat))
		b.Open = true
		b.Row = a.Row
		b.NextRD = now + int64(t.RCD)
		b.NextWR = now + int64(t.RCD)
		b.NextPRE = now + int64(t.RAS)
		b.NextACT = now + int64(t.RC)
		for g := range rk.BGs {
			d := int64(t.RRDS)
			if g == a.BankGroup {
				d = int64(t.RRDL)
			}
			maxi(&rk.BGs[g].NextACT, now+d)
		}
		maxi(&rk.NextACT, now+int64(t.RRDS))
		rk.FAW[rk.FAWIdx] = now
		rk.FAWIdx = (rk.FAWIdx + 1) % 4

	case CmdPRE:
		cn.PRE++
		ch.logRow(int32(a.Rank*m.Geom.BanksPerRank() + flat))
		b.Open = false
		maxi(&b.NextACT, now+int64(t.RP))

	case CmdRD:
		if internal {
			cn.NDARD++
		} else {
			cn.RD++
		}
		maxi(&b.NextPRE, now+int64(t.RTP))
		for g := range rk.BGs {
			d := int64(t.CCDS)
			if g == a.BankGroup {
				d = int64(t.CCDL)
			}
			maxi(&rk.BGs[g].NextRD, now+d)
			maxi(&rk.BGs[g].NextWR, now+d)
		}
		// Read-to-write turnaround on the rank's data path applies to
		// both host and NDA accesses sharing that path.
		maxi(&rk.NextWR, now+int64(t.ReadToWrite()))
		if !internal {
			ch.DataBusyUntil = now + int64(t.CL) + int64(t.BL)
			ch.LastColValid = true
			ch.LastColRead = true
			ch.LastColRank = a.Rank
			ch.LastColCycle = now
		}

	case CmdWR:
		if internal {
			cn.NDAWR++
		} else {
			cn.WR++
		}
		maxi(&b.NextPRE, now+int64(t.CWL+t.BL+t.WR))
		for g := range rk.BGs {
			ccd := int64(t.CCDS)
			wtr := int64(t.WriteToReadDiffBG())
			if g == a.BankGroup {
				ccd = int64(t.CCDL)
				wtr = int64(t.WriteToReadSameBG())
			}
			maxi(&rk.BGs[g].NextWR, now+ccd)
			maxi(&rk.BGs[g].NextRD, now+wtr)
		}
		if !internal {
			ch.DataBusyUntil = now + int64(t.CWL) + int64(t.BL)
			ch.LastColValid = true
			ch.LastColRead = false
			ch.LastColRank = a.Rank
			ch.LastColCycle = now
		}
	}
	return true
}

// ReadLatency returns cycles from RD issue to the end of the data burst.
func (m *Mem) ReadLatency() int64 { return int64(m.T.CL + m.T.BL) }

// WriteLatency returns cycles from WR issue to the end of the data burst.
func (m *Mem) WriteLatency() int64 { return int64(m.T.CWL + m.T.BL) }
