package workload

// GenState is a copy of a Generator's mutable state at the core's
// position in the stream: the RNG position (as a draw count, replayed on
// restore) and the per-stream cursors. Both are durable identities, so
// the exported fields are also the checkpoint encoding. The profile,
// region, and seed are construction inputs and are not part of the
// snapshot — restore targets a generator built with the same arguments.
// The lookahead batches are not part of it either: restore refills them.
type GenState struct {
	Draws   uint64
	Streams []uint64
}

// Snapshot captures the generator's state at the core's position. The
// batch being read marks where its fill started, so Snapshot rewinds a
// copy of the lookahead source to that mark, then replays the batch's
// records up to the current one and the plain instructions already
// taken from it.
func (g *Generator) Snapshot() *GenState {
	if g.cur == nil {
		return &GenState{Draws: g.ahead.src.Draws(), Streams: append([]uint64(nil), g.ahead.streams...)}
	}
	<-g.done // the fill in flight moves g.ahead; hand its signal back below
	c := &cursor{src: g.ahead.src, streams: append([]uint64(nil), g.cur.streams...)}
	g.done <- struct{}{}
	c.src.Rewind(c.src.Draws() - g.cur.draws)
	for range g.cur.recs[:g.pos-1] {
		g.record(c, maxCount)
	}
	g.record(c, g.cur.recs[g.pos-1]>>countShift-g.rec>>countShift)
	return &GenState{Draws: c.src.Draws(), Streams: c.streams}
}

// Restore rewinds (or fast-forwards) the generator to the snapshotted
// state. It waits for the fill in flight, replays the RNG to the
// recorded draw count and copies the stream cursors; the next read
// refills the lookahead from there. The generator must have been built
// with the same profile, region, and seed as the snapshotted one.
func (g *Generator) Restore(st *GenState) {
	if len(st.Streams) != len(g.ahead.streams) {
		panic("workload: restore onto a generator with different stream count")
	}
	if g.cur != nil {
		<-g.done
	}
	g.ahead.src.ReplayTo(st.Draws)
	copy(g.ahead.streams, st.Streams)
	g.rec, g.pos, g.cur = 0, batchRecs, nil
}
