package nda

import (
	"fmt"

	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/ring"
	"chopim/internal/workload/rng"
)

// Policy selects the NDA write-throttling mechanism (Section III-B).
type Policy int

// Write-issue policies.
const (
	// IssueIfIdle issues aggressively whenever the rank is idle from the
	// host's perspective (the baseline opportunistic policy).
	IssueIfIdle Policy = iota
	// Stochastic issues writes with probability StochasticProb per
	// attempt; requires no extra signaling.
	Stochastic
	// NextRank inhibits writes on a rank while the oldest outstanding
	// host read in the channel targets that rank (needs one signal pin).
	NextRank
)

// String names the policy as in Figure 12's legend.
func (p Policy) String() string {
	switch p {
	case IssueIfIdle:
		return "Issue_if_idle"
	case Stochastic:
		return "Stochastic_issue"
	case NextRank:
		return "Predict_next_rank"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// WriteBufCap is the PE write buffer's capacity in blocks (Table II).
const WriteBufCap = 128

// Config tunes the NDA engine.
type Config struct {
	Policy         Policy
	StochasticProb float64 // write-issue probability under Stochastic
	Seed           int64
	// VerifyFSM additionally runs an independent host-side replica FSM
	// from host-visible inputs only and asserts cycle-exact agreement
	// with the NDA-side FSM (the Section III-D argument).
	VerifyFSM bool
}

// DefaultConfig returns the paper's NDA parameters with the robust
// next-rank predictor.
func DefaultConfig() Config {
	return Config{Policy: NextRank, StochasticProb: 0.25, Seed: 42}
}

// RankStats aggregates one rank-NDA's activity.
type RankStats struct {
	BlocksRead    int64
	BlocksWritten int64
	RowActs       int64
	StallsHost    int64 // cycles skipped because the host used the rank
	StallsPolicy  int64 // write attempts inhibited by the policy
	OpsCompleted  int64
}

// wbEntry is one pending result block in the PE write buffer: its
// address and the op it belongs to.
type wbEntry struct {
	addr  dram.Addr
	owner *Op
}

// rankFSM is the deterministic per-rank NDA state machine. It is the
// unit that Section III-D replicates: every transition is a function of
// (launched op descriptors, host-visible DRAM timing state, host queue
// state, the shared clock), so a host-side copy stays in lock-step
// without any NDA-to-host signaling.
type rankFSM struct {
	ops      []*Op
	wb       ring.Ring[wbEntry] // pending result blocks (FIFO, allocation-free once warmed)
	draining bool
	readsRun int // reads completed toward the current batch

	stats RankStats

	// coin is the Stochastic policy's draw source, counted for snapshot
	// replay; nil under the other policies, which never draw.
	coin *rng.Source
}

// snapshot summarizes observable FSM state for replica comparison.
func (f *rankFSM) snapshot() string {
	return fmt.Sprintf("ops=%d wb=%d drain=%v reads=%d rd=%d wr=%d",
		len(f.ops), f.wb.Len(), f.draining, f.readsRun,
		f.stats.BlocksRead, f.stats.BlocksWritten)
}

// RankNDA is one rank's PE cluster plus its NDA memory controller, with
// an optional host-side replica FSM.
type RankNDA struct {
	Channel, Rank int

	cfg      Config
	stochCut rng.Cut // rng.CutOf(cfg.StochasticProb)
	mem      *dram.Mem
	host     *mc.Controller

	fsm     rankFSM
	replica *rankFSM

	// sleepUntil caches the FSM's next event: ticks before it are
	// provably no-ops and are skipped. A bound holds until the rank
	// steps or the controller's per-rank queue counter
	// (mc.Controller.NDAVer, recorded in derivedVer) moves:
	//
	//   - The evaluation reads this rank's DRAM horizons and host
	//     controller state (oldest-read rank, per-bank demand). NDAVer
	//     covers exactly the read-queue head and this rank's bucket
	//     zero-crossings, so churn on other ranks never invalidates.
	//   - A host command to this rank moves its horizons and can close
	//     the row, and the engine provably steps the rank on that very
	//     cycle (the dispatcher ticks a channel's NDAs after every tick
	//     of its controller, and a rank the host issued to steps),
	//     marking the bound stale before it could be consumed again.
	//   - Every branch that accrues per-cycle stall counters bounds
	//     itself at now and is never slept over.
	//
	// Bounds are derived lazily: a step marks sleepStale and the next
	// ChannelNextEvent query or fast-path tick evaluates nextEvent —
	// under sustained host traffic every cycle executes anyway and
	// eager evaluation would be waste.
	// A stale or invalid bound is never trusted; stepping instead is
	// always reference-exact.
	sleepUntil int64
	sleepStale bool
	derivedVer uint64

	// csink receives op completion callbacks instead of the rank
	// invoking them inline (see NewEngine).
	csink func(done func(int64), at int64)
}

// Stats returns the rank's activity counters.
func (n *RankNDA) Stats() RankStats { return n.fsm.stats }

// Engine owns every RankNDA in the system and the host-side NDA
// controller logic that coordinates with the host memory controllers.
type Engine struct {
	cfg   Config
	mem   *dram.Mem
	hosts []*mc.Controller // per channel
	Ranks [][]*RankNDA     // [channel][rank]
}

// NewEngine builds the NDA engine over the memory and host controllers.
// sink receives every rank NDA's op completion callbacks (Op.Done) with
// the DRAM cycle they must be invoked with; the sim package points it
// at its completion mailbox, and deferred callbacks must run before the
// end of the cycle they were produced in.
func NewEngine(cfg Config, mem *dram.Mem, hosts []*mc.Controller, sink func(done func(int64), at int64)) *Engine {
	e := &Engine{cfg: cfg, mem: mem, hosts: hosts}
	for ch := 0; ch < mem.Geom.Channels; ch++ {
		var row []*RankNDA
		for r := 0; r < mem.Geom.Ranks; r++ {
			seed := cfg.Seed + int64(ch*64+r)
			coin := func() *rng.Source {
				if cfg.Policy != Stochastic {
					return nil
				}
				return rng.New(seed)
			}
			n := &RankNDA{
				Channel: ch, Rank: r, cfg: cfg, stochCut: rng.CutOf(cfg.StochasticProb),
				mem: mem, host: hosts[ch], fsm: rankFSM{coin: coin()}, csink: sink,
			}
			if cfg.VerifyFSM {
				n.replica = &rankFSM{coin: coin()}
			}
			row = append(row, n)
		}
		e.Ranks = append(e.Ranks, row)
	}
	return e
}

// Launch enqueues an op on the given rank's NDA. makeOp must build a
// fresh op (fresh iterators) on each call: when FSM verification is on,
// a second instance feeds the host-side replica. In hardware the launch
// arrives through a control-register write; the runtime layer models that
// channel occupancy.
func (e *Engine) Launch(channel, rank int, makeOp func() *Op) {
	n := e.Ranks[channel][rank]
	n.sleepStale = true // re-derive: the new op changes the FSM's next action
	n.fsm.ops = append(n.fsm.ops, makeOp())
	if n.replica != nil {
		op := makeOp()
		op.Done = nil // completion is reported by the primary only
		n.replica.ops = append(n.replica.ops, op)
	}
}

// Busy reports whether any NDA still has work queued.
func (e *Engine) Busy() bool {
	for _, row := range e.Ranks {
		for _, n := range row {
			if len(n.fsm.ops) > 0 || n.fsm.wb.Len() > 0 {
				return true
			}
		}
	}
	return false
}

// TickChannel advances one channel's rank NDAs by one DRAM cycle. It
// must run after that channel's host controller ticked for the same
// cycle (host priority), on every cycle: a rank the host issued to
// yields, and counts the stall, on that very cycle. With sleep set,
// each rank skips the cycles its sleep bound proves idle (see
// RankNDA.tick); without it, every rank with work steps, which is the
// reference behaviour. A channel's NDAs read and write only that
// channel's state — its host controller (issued-rank, queue-demand, and
// version reads), its share of the DRAM timing model, and their own
// FSMs — except for op completion callbacks, which divert through the
// completion sink.
func (e *Engine) TickChannel(ch int, now int64, sleep bool) {
	hostRank := e.hosts[ch].HostIssuedRank()
	for _, n := range e.Ranks[ch] {
		n.tick(now, hostRank, sleep)
	}
}

// ChannelNextEvent returns the earliest DRAM cycle >= now at which any
// of one channel's rank NDAs can issue a command or mutate observable
// state, assuming no host command targets a busy rank before then (the
// dispatcher forces that channel's tick on any cycle where one does, so
// consuming the bound is sound). Stale or version-invalidated bounds are
// re-derived here from current state: between a rank's last step and
// this query nothing it reads can have changed without either bumping
// the rank's NDAVer on its channel's controller (every bound
// revalidates against it) or issuing to the rank itself (which forced a
// step), so the lazy evaluation equals the one the step would have
// done. Stall counters that accrue per-cycle under host interference
// all live behind branches whose bound is now, and are never slept
// over. One channel's host-queue churn never perturbs another channel's
// cached bounds, and the query reads and refreshes only channel-local
// state.
func (e *Engine) ChannelNextEvent(ch int, now int64) int64 {
	next := dram.Never
	for _, n := range e.Ranks[ch] {
		if len(n.fsm.ops) == 0 && n.fsm.wb.Len() == 0 {
			continue
		}
		w := n.bound(now)
		if w <= now {
			return now
		}
		if w < next {
			next = w
		}
	}
	return next
}

// bound returns the rank's cached sleep bound, re-deriving it first
// when a step marked it stale or the host queue state it read moved.
// Bounds revalidate against the per-rank queue counter, not the
// controller-wide version: the host reads on the evaluation path
// (OldestReadRank, HasDemandFor) observe only the read-queue head and
// this rank's bucket occupancy — exactly what NDAVer(rank) counts —
// and host row commands, which bump Ver but no queue counter, reach
// this rank through the issued-rank forced step instead. Queue churn
// confined to other ranks never disturbs this rank's cached bound.
func (n *RankNDA) bound(now int64) int64 {
	if n.sleepStale || n.derivedVer != n.host.NDAVer(n.Rank) {
		n.sleepUntil = n.nextEvent(now)
		n.derivedVer = n.host.NDAVer(n.Rank)
		n.sleepStale = false
	}
	return n.sleepUntil
}

// nextEvent mirrors stepFSM's decision tree without mutating: every
// branch either proves the FSM idle until a computable timing horizon or
// returns now because the next tick performs work (an RNG draw, a
// policy-stall counter bump, a state-flag flip, or op completion).
func (n *RankNDA) nextEvent(now int64) int64 {
	f := &n.fsm
	if len(f.ops) == 0 && f.wb.Len() == 0 {
		return dram.Never
	}
	wantWrite := false
	switch {
	case f.wb.Len() >= WriteBufCap:
		wantWrite = true
	case f.draining && f.wb.Len() > 0:
		wantWrite = true
	case f.wb.Len() > 0 && (len(f.ops) == 0 || f.ops[0].exhausted):
		wantWrite = true
	}
	if wantWrite {
		switch n.cfg.Policy {
		case Stochastic:
			return now // every attempt draws from the FSM's RNG
		case NextRank:
			if r, ok := n.host.OldestReadRank(); ok && r == n.Rank {
				return now // StallsPolicy advances each inhibited cycle
			}
		}
		return n.accessEvent(dram.CmdWR, f.wb.Front().addr, now)
	}
	a, ok := f.ops[0].PeekRead()
	if !ok {
		return now // exhaustion discovery, tail flush, or completion
	}
	return n.accessEvent(dram.CmdRD, a, now)
}

// accessEvent bounds when the FSM's pending column access (or the row
// command it needs first) can make progress.
func (n *RankNDA) accessEvent(col dram.Command, a dram.Addr, now int64) int64 {
	row, open := n.mem.OpenRow(a)
	if open && row == a.Row {
		return n.mem.NextIssue(col, a, now, true)
	}
	if n.host.HasDemandFor(n.Rank, a.GlobalBank(n.mem.Geom)) {
		return now // StallsHost advances each blocked cycle
	}
	if open {
		return n.mem.NextIssue(dram.CmdPRE, a, now, true)
	}
	return n.mem.NextIssue(dram.CmdACT, a, now, true)
}

// TotalStats sums per-rank statistics.
func (e *Engine) TotalStats() RankStats {
	var t RankStats
	for _, row := range e.Ranks {
		for _, n := range row {
			s := n.fsm.stats
			t.BlocksRead += s.BlocksRead
			t.BlocksWritten += s.BlocksWritten
			t.RowActs += s.RowActs
			t.StallsHost += s.StallsHost
			t.StallsPolicy += s.StallsPolicy
			t.OpsCompleted += s.OpsCompleted
		}
	}
	return t
}

// tick attempts to issue at most one DRAM command for this rank's NDA.
// The replica, when present, is stepped first with apply=false so both
// FSMs evaluate against identical pre-issue DRAM state; their observable
// state must then agree.
//
// With sleep set (the fast path), the rank sleeps while its bound holds
// (see sleepUntil's validity contract), revalidating or re-deriving it
// here first, so a channel needs no separate ChannelNextEvent pass
// before its tick. A host command to this rank this cycle steps it
// without consulting the bound. Stepping is what the reference does
// every cycle, so it is always exact.
func (n *RankNDA) tick(now int64, hostIssuedRank int, sleep bool) {
	if len(n.fsm.ops) == 0 && n.fsm.wb.Len() == 0 {
		return
	}
	if sleep && hostIssuedRank != n.Rank && now < n.bound(now) {
		return
	}
	n.sleepStale = true
	n.step(now, hostIssuedRank)
}

// step runs one FSM transition (and the replica's, when armed).
func (n *RankNDA) step(now int64, hostIssuedRank int) {
	if n.replica != nil {
		n.stepFSM(n.replica, now, hostIssuedRank, false)
	}
	n.stepFSM(&n.fsm, now, hostIssuedRank, true)
	if n.replica != nil {
		if got, want := n.replica.snapshot(), n.fsm.snapshot(); got != want {
			panic(fmt.Sprintf("nda: replica FSM diverged on ch%d/rk%d at cycle %d: replica{%s} nda{%s}",
				n.Channel, n.Rank, now, got, want))
		}
	}
}

// stepFSM advances one FSM by one cycle. When apply is true, DRAM
// commands actually issue; the replica passes false and only predicts.
func (n *RankNDA) stepFSM(f *rankFSM, now int64, hostIssuedRank int, apply bool) {
	// Host accessed this rank this cycle: the NDA yields (fine-grain
	// interleaving with host priority). The replica sees the same host
	// command stream.
	if hostIssuedRank == n.Rank {
		f.stats.StallsHost++
		return
	}
	wantWrite := false
	switch {
	case f.wb.Len() >= WriteBufCap:
		f.draining = true
		wantWrite = true
	case f.draining && f.wb.Len() > 0:
		wantWrite = true
	case f.wb.Len() > 0 && (len(f.ops) == 0 || f.ops[0].exhausted):
		// Tail flush: no more reads to overlap with.
		f.draining = true
		wantWrite = true
	default:
		f.draining = false
	}
	if wantWrite {
		n.tryWrite(f, now, apply)
		return
	}
	if len(f.ops) > 0 {
		n.tryRead(f, now, apply)
	}
}

// tryWrite attempts to issue the head write-buffer entry.
func (n *RankNDA) tryWrite(f *rankFSM, now int64, apply bool) {
	front := f.wb.Front()
	a, owner := front.addr, front.owner
	// Policy throttling applies to writes only.
	switch n.cfg.Policy {
	case Stochastic:
		if !f.coin.Below(n.stochCut) {
			f.stats.StallsPolicy++
			return
		}
	case NextRank:
		if r, ok := n.host.OldestReadRank(); ok && r == n.Rank {
			f.stats.StallsPolicy++
			return
		}
	}
	if !n.access(f, dram.CmdWR, a, now, apply) {
		return
	}
	f.wb.Pop()
	f.stats.BlocksWritten++
	owner.pendingWr--
	n.maybeComplete(f, owner, now)
}

// tryRead attempts the next read of the head op, producing result-write
// entries at batch boundaries.
func (n *RankNDA) tryRead(f *rankFSM, now int64, apply bool) {
	op := f.ops[0]
	a, ok := op.nextRead()
	if !ok {
		// All reads done; flush any remaining result writes.
		n.emitWrites(f, op, BatchBlocks)
		if op.pendingWr == 0 {
			n.maybeComplete(f, op, now)
		}
		return
	}
	if !n.access(f, dram.CmdRD, a, now, apply) {
		op.pushback(a)
		return
	}
	f.stats.BlocksRead++
	f.readsRun++
	if f.readsRun >= op.batchReads() {
		f.readsRun = 0
		n.emitWrites(f, op, BatchBlocks)
	}
}

// emitWrites moves up to k result addresses of op into the write buffer.
func (n *RankNDA) emitWrites(f *rankFSM, op *Op, k int) {
	if op.Writes == nil {
		return
	}
	for i := 0; i < k; i++ {
		a, ok := op.Writes()
		if !ok {
			break
		}
		op.emitted++
		f.wb.Push(wbEntry{addr: a, owner: op})
		op.pendingWr++
	}
}

// maybeComplete retires the head op when fully done.
func (n *RankNDA) maybeComplete(f *rankFSM, op *Op, now int64) {
	if len(f.ops) == 0 || f.ops[0] != op {
		return
	}
	if !op.exhausted || op.pendingWr > 0 {
		return
	}
	if op.Writes != nil {
		// The write iterator must be fully drained too.
		if a, ok := op.Writes(); ok {
			op.emitted++
			f.wb.Push(wbEntry{addr: a, owner: op})
			op.pendingWr++
			return
		}
	}
	k := copy(f.ops, f.ops[1:])
	f.ops[k] = nil
	f.ops = f.ops[:k]
	f.readsRun = 0
	f.stats.OpsCompleted++
	if op.Done != nil {
		// Completion callbacks touch state shared across channels
		// (runtime handles), so they go to the sink and run in the
		// serial commit phase. The replica FSM never reaches here with
		// a Done (Launch clears it), so the primary and replica stay
		// comparable.
		n.csink(op.Done, now)
	}
}

// access performs row management and the column issue for one block.
// Returns true if the column command may issue this cycle (and issues it
// when apply is set).
func (n *RankNDA) access(f *rankFSM, col dram.Command, a dram.Addr, now int64, apply bool) bool {
	// NDA-side protection: every access must target this NDA's own rank
	// and pass the launch packet's bounds check.
	if a.Channel != n.Channel || a.Rank != n.Rank {
		panic(fmt.Sprintf("nda: protection fault: ch%d/rk%d NDA accessed ch%d/rk%d",
			n.Channel, n.Rank, a.Channel, a.Rank))
	}
	if len(f.ops) > 0 && f.ops[0].Guard != nil && !f.ops[0].Guard(a) {
		panic(fmt.Sprintf("nda: protection fault: access %+v outside operand bounds", a))
	}
	row, open := n.mem.OpenRow(a)
	if open && row == a.Row {
		return n.issue(col, a, now, apply)
	}
	// Row command needed: the host's pending requests to this bank take
	// priority over NDA row commands (Section III-B).
	if n.host.HasDemandFor(n.Rank, a.GlobalBank(n.mem.Geom)) {
		f.stats.StallsHost++
		return false
	}
	if open {
		if apply {
			n.mem.TryIssue(dram.CmdPRE, a, now, true)
		}
		return false
	}
	if n.issue(dram.CmdACT, a, now, apply) {
		f.stats.RowActs++
	}
	return false
}

// issue reports whether the internal command cmd to a is legal at now,
// and on the primary FSM (apply) issues it in the same call. The replica
// only checks.
func (n *RankNDA) issue(cmd dram.Command, a dram.Addr, now int64, apply bool) bool {
	if apply {
		return n.mem.TryIssue(cmd, a, now, true)
	}
	return n.mem.CanIssue(cmd, a, now, true)
}
