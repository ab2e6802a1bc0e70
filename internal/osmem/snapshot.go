package osmem

// allocState is a deep copy of one Allocator's free lists and
// allocation table. Free-list slice order is preserved exactly: Alloc
// pops the last element, so the order is part of the allocator's
// deterministic behavior and a restored allocator must replay the same
// address choices as the snapshotted one. The durable encoding keeps
// each list verbatim, and encoding/json writes map keys sorted, so the
// encoded bytes are deterministic for a given state.
type allocState struct {
	Free      map[uint][]uint64
	Allocated map[uint64]uint
}

func (a *Allocator) snapshot() allocState {
	st := allocState{
		Free:      make(map[uint][]uint64, len(a.free)),
		Allocated: make(map[uint64]uint, len(a.allocated)),
	}
	for o, blocks := range a.free {
		st.Free[o] = append([]uint64(nil), blocks...)
	}
	for b, o := range a.allocated {
		st.Allocated[b] = o
	}
	return st
}

func (a *Allocator) restore(st allocState) {
	a.free = make(map[uint][]uint64, len(st.Free))
	for o, blocks := range st.Free {
		a.free[o] = append([]uint64(nil), blocks...)
	}
	a.allocated = make(map[uint64]uint, len(st.Allocated))
	for b, o := range st.Allocated {
		a.allocated[b] = o
	}
}

// OSState is a deep copy of the OS allocators' mutable state; its
// exported fields are also the durable checkpoint encoding.
type OSState struct {
	Host   allocState
	Shared allocState
}

// Snapshot captures both allocators. The snapshot shares nothing with
// the live OS, so one snapshot can seed any number of restores.
func (o *OS) Snapshot() *OSState {
	return &OSState{Host: o.host.snapshot(), Shared: o.shared.snapshot()}
}

// Restore overwrites the allocators' state with the snapshot. The OS
// must have been built over the same mapper/geometry.
func (o *OS) Restore(st *OSState) {
	o.host.restore(st.Host)
	o.shared.restore(st.Shared)
}
