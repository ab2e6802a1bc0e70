package mc

import "chopim/internal/addrmap"

// Router fans requests out to per-channel controllers by decoded channel
// index; it is the one place that decodes host addresses. It adapts the
// controllers to the cache.Backend interface, using a clock source for
// arrival timestamps.
type Router struct {
	ctrls  []*Controller
	mapper *addrmap.Map
	now    func() int64
}

// NewRouter builds a router over the per-channel controllers.
func NewRouter(ctrls []*Controller, mapper *addrmap.Map, now func() int64) *Router {
	return &Router{ctrls: ctrls, mapper: mapper, now: now}
}

// EnqueueRead implements cache.Backend. The routing decode is passed
// through to the controller so the address is decoded once per request.
func (r *Router) EnqueueRead(addr uint64, done func(int64)) bool {
	d := r.mapper.Decode(addr)
	return r.ctrls[d.Channel].EnqueueRead(addr, d, r.now(), done)
}

// EnqueueWrite implements cache.Backend.
func (r *Router) EnqueueWrite(addr uint64) {
	d := r.mapper.Decode(addr)
	r.ctrls[d.Channel].EnqueueWrite(addr, d, r.now())
}

// ReadFull implements cache.Backend: whether the read queue of addr's
// channel would refuse a read now.
func (r *Router) ReadFull(addr uint64) bool {
	return r.ctrls[r.mapper.Decode(addr).Channel].ReadFull()
}
