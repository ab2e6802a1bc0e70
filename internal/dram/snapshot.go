package dram

// MemState is a deep copy of a Mem's mutable state — bank/row state,
// every timing horizon, the bus occupancy clocks, and the command
// counters. It contains no pointers into the live Mem, so one
// snapshot can seed any number of restores (checkpoint forking). The
// channel, rank, bank and bank-group structs are the live ones: their
// exported fields are also the durable checkpoint encoding
// (encoding/json, no codec), and the in-memory-only row log is tagged
// out of it.
type MemState struct {
	Channels []chanState
	Cnts     CmdCounts
}

// Snapshot captures the Mem's full mutable state.
func (m *Mem) Snapshot() *MemState {
	st := &MemState{
		Channels: make([]chanState, len(m.channels)),
		Cnts:     m.cnts,
	}
	for c := range m.channels {
		copyChanState(&st.Channels[c], &m.channels[c])
	}
	return st
}

// Restore overwrites the Mem's mutable state with the snapshot. The Mem
// must have been built with the same Geometry as the snapshotted one
// (callers restore onto a freshly constructed same-config system).
func (m *Mem) Restore(st *MemState) {
	if len(m.channels) != len(st.Channels) {
		panic("dram: restore onto a Mem with different geometry")
	}
	m.cnts = st.Cnts
	for c := range m.channels {
		copyChanState(&m.channels[c], &st.Channels[c])
	}
}

// copyChanState deep-copies src into dst, allocating dst's nested
// slices when they are missing (snapshot) and reusing them when they
// match (restore).
func copyChanState(dst, src *chanState) {
	ranks := dst.Ranks
	*dst = *src
	if len(ranks) != len(src.Ranks) {
		ranks = make([]rankState, len(src.Ranks))
	}
	dst.Ranks = ranks
	for r := range src.Ranks {
		s, d := &src.Ranks[r], &dst.Ranks[r]
		banks, bgs, faw := d.Banks, d.BGs, d.FAW
		*d = *s
		if len(banks) != len(s.Banks) {
			banks = make([]bankState, len(s.Banks))
		}
		if len(bgs) != len(s.BGs) {
			bgs = make([]bgState, len(s.BGs))
		}
		if len(faw) != len(s.FAW) {
			faw = make([]int64, len(s.FAW))
		}
		d.Banks, d.BGs, d.FAW = banks, bgs, faw
		copy(d.Banks, s.Banks)
		copy(d.BGs, s.BGs)
		copy(d.FAW, s.FAW)
	}
}
