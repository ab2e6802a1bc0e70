package cpu

import (
	"encoding/json"
	"testing"

	"chopim/internal/cache"
)

// loopTrace repeats a fixed pattern; copying the value copies its
// position.
type loopTrace struct {
	instrs []Instr
	i      int
}

func (l *loopTrace) Next() Instr {
	in := l.instrs[l.i%len(l.instrs)]
	l.i++
	return in
}

func (l *loopTrace) NextRun(max int) (int, Instr, bool) { return runOf(l.Next, max) }

// TestRestoreMidRun cuts a core at a cycle whose retire budget ran out
// inside a plain run, so the ROB head is a partially retired run, sends
// the state through its durable JSON form into a fresh core, and checks
// the restored core continues exactly as the original.
func TestRestoreMidRun(t *testing.T) {
	plain := func(k int) []Instr { return make([]Instr, k) }
	var pat []Instr
	pat = append(pat, Instr{Mem: true, Addr: 0x1000})
	pat = append(pat, plain(13)...)
	pat = append(pat, Instr{Serialize: true})
	pat = append(pat, plain(6)...)
	pat = append(pat, Instr{Mem: true, Write: true, Addr: 0x2040})
	pat = append(pat, plain(21)...)
	pat = append(pat, Instr{Mem: true, Serialize: true, Addr: 0x30c0})
	pat = append(pat, plain(9)...)
	tr := &loopTrace{instrs: pat}
	c, b := newCoreWith(tr)
	fire := func(b *fakeBackend, cyc int64) {
		for _, d := range b.dones {
			d(cyc)
		}
		b.dones = b.dones[:0]
	}
	pre := make([]int32, len(c.rob))
	cyc := int64(0)
	for ; ; cyc++ {
		if cyc == 10_000 {
			t.Fatal("no cycle ended with a partially retired run at the ROB head")
		}
		fire(b, cyc)
		for i := range c.rob {
			pre[i] = c.rob[i].Count
		}
		c.Tick(cyc)
		h := c.rob[c.head]
		if c.ents > 0 && !h.IsLoad && !h.IsStore && h.DoneAt <= cyc && h.Count < pre[c.head] && len(b.dones) == 0 {
			break
		}
	}

	enc, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st CoreState
	if err := json.Unmarshal(enc, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rob[0].Count != c.rob[c.head].Count {
		t.Fatalf("snapshot head entry %+v, live %+v", st.Rob[0], c.rob[c.head])
	}
	b2 := &fakeBackend{}
	h2 := cache.NewHierarchy(cache.DefaultHierarchyConfig(1), b2, fixedClock{})
	tr2 := *tr
	c2 := NewCore(0, &tr2, h2)
	h2.Restore(c.hier.Snapshot(), func(_, slot int) func(int64) { return c2.DoneFn(slot) })
	c2.Restore(&st)
	for end := cyc + 5_000; cyc < end; {
		cyc++
		fire(b, cyc)
		fire(b2, cyc)
		c.Tick(cyc)
		c2.Tick(cyc)
		if got, want := coreState(c2), coreState(c); got != want {
			t.Fatalf("cycle %d: restored core %s, original %s", cyc, got, want)
		}
	}
}
