package cpu

// CoreState is a deep copy of a Core's mutable state: the ROB contents,
// LSQ occupancy, blocked-state tracking, and retirement counters. Its exported fields are also the durable checkpoint
// encoding. Completion callbacks are not serialized — they are per-slot
// closures the constructor rebuilds, so slot identity is the durable
// name of an in-flight load (restored MSHR waiters reattach through
// DoneFn). Rob holds only the live entries, in order from Head: entry i
// sits in slot Head+i (mod robSize) on both sides, and free slots hold
// nothing a later cycle reads.
type CoreState struct {
	Rob      []robEntry
	Head, N  int
	Stores   int
	Loads    int
	Stalled  Instr
	HasStall bool

	Blocked    bool
	ProbeStall bool
	Wake       int64
	Dirty      bool

	Retired int64
	Cycles  int64
}

// Snapshot captures the core's mutable state.
func (c *Core) Snapshot() *CoreState {
	rob := make([]robEntry, c.ents)
	for i := range rob {
		rob[i] = c.rob[c.slot(i)]
	}
	return &CoreState{
		Rob:  rob,
		Head: c.head, N: c.n, Stores: c.stores, Loads: c.loads,
		Stalled: c.stalled, HasStall: c.hasStall,
		Blocked: c.blocked, ProbeStall: c.probeStall, Wake: c.wake, Dirty: c.dirty,
		Retired: c.Retired, Cycles: c.Cycles,
	}
}

// Restore overwrites the core's mutable state with the snapshot.
// Entries are copied in place: the per-slot completion closures capture &c.rob[i], so the
// backing array must not be replaced.
func (c *Core) Restore(st *CoreState) {
	if len(st.Rob) > len(c.rob) || st.Head < 0 || st.Head >= len(c.rob) {
		panic("cpu: restore of a ROB that does not fit this core")
	}
	c.head, c.ents = st.Head, len(st.Rob)
	for i, e := range st.Rob {
		c.rob[c.slot(i)] = e
	}
	c.n, c.stores, c.loads = st.N, st.Stores, st.Loads
	c.stalled, c.hasStall = st.Stalled, st.HasStall
	c.blocked, c.probeStall, c.wake, c.dirty = st.Blocked, st.ProbeStall, st.Wake, st.Dirty
	c.Retired, c.Cycles = st.Retired, st.Cycles
}
