package stats

import (
	"testing"
	"testing/quick"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		gap  int64
		want IdleBucket
	}{
		{1, Idle1To10}, {10, Idle1To10}, {11, Idle10To100}, {100, Idle10To100},
		{101, Idle100To250}, {250, Idle100To250}, {251, Idle250To500},
		{500, Idle250To500}, {501, Idle500To1000}, {1000, Idle500To1000},
		{1001, Idle1000Plus}, {1 << 40, Idle1000Plus},
	}
	for _, c := range cases {
		if got := bucketOf(c.gap); got != c.want {
			t.Errorf("bucketOf(%d) = %v, want %v", c.gap, got, c.want)
		}
	}
}

func TestIdleHistAccounting(t *testing.T) {
	var h IdleHist
	h.MarkBusy(0, 10)    // 10 busy
	h.MarkBusy(15, 20)   // 5-cycle gap, 5 busy
	h.MarkBusy(320, 330) // 300-cycle gap, 10 busy
	h.Finalize(340)      // 10-cycle trailing gap
	c := h.Cycles
	if c[Busy] != 25 {
		t.Errorf("busy = %d, want 25", c[Busy])
	}
	if c[Idle1To10] != 15 { // 5 + trailing 10
		t.Errorf("1-10 bucket = %d, want 15", c[Idle1To10])
	}
	if c[Idle250To500] != 300 {
		t.Errorf("250-500 bucket = %d, want 300", c[Idle250To500])
	}
}

func TestOverlappingBusyMerged(t *testing.T) {
	var h IdleHist
	h.MarkBusy(0, 20)
	h.MarkBusy(10, 30) // overlaps; only 10 new busy cycles
	h.Finalize(30)
	if got := h.BusyCycles(); got != 30 {
		t.Errorf("busy = %d, want 30", got)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	f := func(spans []uint8) bool {
		var h IdleHist
		var at int64
		for _, s := range spans {
			at += int64(s%50) + 1
			h.MarkBusy(at, at+int64(s%7)+1)
			at += int64(s%7) + 1
		}
		h.Finalize(at + 100)
		fr := h.Fractions()
		var sum float64
		for _, v := range fr {
			sum += v
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h IdleHist
	fr := h.Fractions()
	for _, v := range fr {
		if v != 0 {
			t.Error("fractions nonzero on empty histogram")
		}
	}
}

func TestBucketStrings(t *testing.T) {
	for b := IdleBucket(0); b < NumIdleBuckets; b++ {
		if b.String() == "" {
			t.Errorf("bucket %d has empty label", b)
		}
	}
}
