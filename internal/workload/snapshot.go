package workload

// GenState is a copy of a Generator's mutable state: the RNG position
// (as a draw count, replayed on restore) and the per-stream cursors.
// Both are durable identities, so the exported fields are also the
// checkpoint encoding. The profile, region, and seed are construction
// inputs and are not part of the snapshot — restore targets a generator
// built with the same arguments.
type GenState struct {
	Draws   uint64
	Streams []uint64
}

// Snapshot captures the generator's mutable state.
func (g *Generator) Snapshot() *GenState {
	return &GenState{Draws: g.src.Draws(), Streams: append([]uint64(nil), g.streams...)}
}

// Restore rewinds (or fast-forwards) the generator to the snapshotted
// state by replaying the RNG to the recorded draw count and copying the
// stream cursors. The generator must have been built with the same
// profile, region, and seed as the snapshotted one.
func (g *Generator) Restore(st *GenState) {
	if len(st.Streams) != len(g.streams) {
		panic("workload: restore onto a generator with different stream count")
	}
	g.src.ReplayTo(st.Draws)
	copy(g.streams, st.Streams)
}
