// Package stats collects simulation metrics: IPC, bandwidth utilization,
// and the rank idle-gap histograms behind the paper's Figure 2.
package stats

import "fmt"

// IdleBucket labels one bin of the idle-gap histogram (Fig 2).
type IdleBucket int

// Buckets follow the paper: cycles spent busy, then idle gaps binned by
// gap length in DRAM cycles.
const (
	Busy IdleBucket = iota
	Idle1To10
	Idle10To100
	Idle100To250
	Idle250To500
	Idle500To1000
	Idle1000Plus
	NumIdleBuckets
)

// String returns the figure legend label for the bucket.
func (b IdleBucket) String() string {
	switch b {
	case Busy:
		return "Busy"
	case Idle1To10:
		return "1-10"
	case Idle10To100:
		return "10-100"
	case Idle100To250:
		return "100-250"
	case Idle250To500:
		return "250-500"
	case Idle500To1000:
		return "500-1000"
	case Idle1000Plus:
		return "1000-"
	}
	return fmt.Sprintf("IdleBucket(%d)", int(b))
}

// bucketOf classifies a gap length in cycles.
func bucketOf(gap int64) IdleBucket {
	switch {
	case gap <= 10:
		return Idle1To10
	case gap <= 100:
		return Idle10To100
	case gap <= 250:
		return Idle100To250
	case gap <= 500:
		return Idle250To500
	case gap <= 1000:
		return Idle500To1000
	default:
		return Idle1000Plus
	}
}

// IdleHist accumulates a per-rank busy/idle cycle breakdown. Busy
// intervals must be reported in non-decreasing start order (as a memory
// controller naturally does). Its exported fields are its whole state,
// so controller checkpoints copy and encode it as it stands.
type IdleHist struct {
	Cycles  [NumIdleBuckets]int64 // raw per-bucket cycle counts
	BusyEnd int64                 // end of the latest busy interval seen
	Started bool
}

// MarkBusy records that the rank was busy during [from, to).
func (h *IdleHist) MarkBusy(from, to int64) {
	if to <= from {
		return
	}
	if !h.Started {
		h.Started = true
		h.BusyEnd = 0
	}
	if from > h.BusyEnd {
		gap := from - h.BusyEnd
		h.Cycles[bucketOf(gap)] += gap
	}
	if from < h.BusyEnd {
		from = h.BusyEnd
	}
	if to > from {
		h.Cycles[Busy] += to - from
		h.BusyEnd = to
	}
}

// Finalize closes the observation window at cycle end, accounting the
// trailing idle gap.
func (h *IdleHist) Finalize(end int64) {
	if end > h.BusyEnd {
		gap := end - h.BusyEnd
		h.Cycles[bucketOf(gap)] += gap
		h.BusyEnd = end
	}
}

// Fractions returns each bucket's share of total observed cycles.
func (h *IdleHist) Fractions() [NumIdleBuckets]float64 {
	var out [NumIdleBuckets]float64
	var total int64
	for _, c := range h.Cycles {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, c := range h.Cycles {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// BusyCycles returns cycles the rank spent servicing host traffic.
func (h *IdleHist) BusyCycles() int64 { return h.Cycles[Busy] }
