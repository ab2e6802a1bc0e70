package mc

import (
	"math/rand"
	"testing"

	"chopim/internal/dram"
)

// calFutureHz lower-bounds the earliest future candidate: the ring's
// first key, min'd with any overflow keys (test-only model probe; the
// production horizon path is calHorizon, which additionally validates
// the earliest bucket).
func (q *reqQueue) calFutureHz() int64 {
	h := q.calFirstKey()
	for bk := q.calOver; bk != -1; bk = q.calNext[bk] {
		if q.calKey[bk] < h {
			h = q.calKey[bk]
		}
	}
	return h
}

// TestCalendarRingOps drives the raw ring with random place/advance
// sequences against a naive model, checking calFirstKey and ready-list
// membership after every operation.
func TestCalendarRingOps(t *testing.T) {
	var q reqQueue
	q.init(2, 16)
	rng := rand.New(rand.NewSource(7))
	model := map[int32]int64{} // bankKey -> key (bucketed or overflow); absent = ready/absent
	inReady := map[int32]bool{}
	now := int64(0)
	q.calAdvance(now)
	for step := 0; step < 200000; step++ {
		switch rng.Intn(4) {
		case 0: // place a bank at a random future (or past) key
			bk := int32(rng.Intn(32))
			k := now + int64(rng.Intn(600)) - 20
			q.calPlace(bk, k, now)
			if k <= now {
				delete(model, bk)
				inReady[bk] = true
			} else {
				model[bk] = k
				delete(inReady, bk)
			}
		case 1: // unlink
			bk := int32(rng.Intn(32))
			q.calUnlink(bk)
			delete(model, bk)
			delete(inReady, bk)
		case 2: // force ready
			bk := int32(rng.Intn(32))
			if q.calWhere[bk] != calAbsent {
				q.calForceReady(bk)
				delete(model, bk)
				inReady[bk] = true
			}
		case 3: // advance
			now += int64(rng.Intn(120))
			q.calAdvance(now)
			for bk, k := range model {
				if k <= now {
					delete(model, bk)
					inReady[bk] = true
				}
			}
		}
		// Check first key.
		want := dram.Never
		for _, k := range model {
			if k < want {
				want = k
			}
		}
		got := q.calFutureHz()
		if got != want {
			t.Fatalf("step %d now=%d: first key %d, want %d (model %v)", step, now, got, want, model)
		}
		// Check ready membership.
		readySet := map[int32]bool{}
		for bk := q.calReady; bk != -1; bk = q.calNext[bk] {
			readySet[bk] = true
		}
		for bk := range inReady {
			if !readySet[bk] {
				t.Fatalf("step %d: bank %d should be ready", step, bk)
			}
		}
		for bk := range readySet {
			if !inReady[bk] {
				t.Fatalf("step %d: bank %d unexpectedly ready", step, bk)
			}
		}
	}
}
