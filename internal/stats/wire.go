// Wire codec for IdleHist: the histogram rides inside controller
// checkpoints, so it round-trips through JSON via an exported mirror of
// its unexported accumulator state.
package stats

import "encoding/json"

// idleHistWire mirrors IdleHist's unexported fields for serialization.
type idleHistWire struct {
	Cycles  [NumIdleBuckets]int64
	Start   int64
	BusyEnd int64
	Started bool
}

// MarshalJSON encodes the histogram's full accumulator state.
func (h IdleHist) MarshalJSON() ([]byte, error) {
	return json.Marshal(idleHistWire{
		Cycles: h.cycles, Start: h.start, BusyEnd: h.busyEnd, Started: h.started,
	})
}

// UnmarshalJSON restores the accumulator state written by MarshalJSON.
func (h *IdleHist) UnmarshalJSON(b []byte) error {
	var w idleHistWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	h.cycles, h.start, h.busyEnd, h.started = w.Cycles, w.Start, w.BusyEnd, w.Started
	return nil
}
