package workload

import (
	"slices"
	"testing"
	"testing/quick"

	"chopim/internal/cpu"
)

func TestMixesMatchTableII(t *testing.T) {
	if len(Mixes) != 9 {
		t.Fatalf("got %d mixes, want 9", len(Mixes))
	}
	if len(Mixes[0]) != 8 {
		t.Errorf("mix0 has %d cores, want 8 (under-provisioned case)", len(Mixes[0]))
	}
	for i := 1; i < 9; i++ {
		if len(Mixes[i]) != 4 {
			t.Errorf("mix%d has %d cores, want 4", i, len(Mixes[i]))
		}
	}
	for i := range Mixes {
		if _, err := MixProfiles(i); err != nil {
			t.Errorf("mix%d: %v", i, err)
		}
	}
}

func TestMixProfilesRange(t *testing.T) {
	if _, err := MixProfiles(-1); err == nil {
		t.Error("negative mix accepted")
	}
	if _, err := MixProfiles(9); err == nil {
		t.Error("out-of-range mix accepted")
	}
}

func TestMixIntensityOrdering(t *testing.T) {
	// mix1 is all-High, mix8 is M:L:L:L per Table II.
	p1, _ := MixProfiles(1)
	for _, p := range p1 {
		if p.Class != High {
			t.Errorf("mix1 contains %s (class %v), want all High", p.Name, p.Class)
		}
	}
	p8, _ := MixProfiles(8)
	lows := 0
	for _, p := range p8 {
		if p.Class == Low {
			lows++
		}
	}
	if lows != 3 {
		t.Errorf("mix8 has %d Low benchmarks, want 3", lows)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := Profiles["mcf_r"]
	g1 := NewGenerator(p, 0, 1<<30, 42)
	g2 := NewGenerator(p, 0, 1<<30, 42)
	for i := 0; i < 1000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatalf("generators diverge at instruction %d", i)
		}
	}
}

func TestGeneratorAddressesInRegion(t *testing.T) {
	f := func(seed int64) bool {
		p := Profiles["lbm_r"]
		const base, size = 1 << 24, 1 << 28
		g := NewGenerator(p, base, size, seed)
		for i := 0; i < 500; i++ {
			in := g.Next()
			if in.Mem && (in.Addr < base || in.Addr >= base+size) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorMemRatio(t *testing.T) {
	p := Profiles["gemsFDTD"]
	g := NewGenerator(p, 0, 1<<30, 7)
	mem := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Mem {
			mem++
		}
	}
	got := float64(mem) / n
	if got < p.MemRatio-0.03 || got > p.MemRatio+0.03 {
		t.Errorf("memory ratio %.3f, profile says %.3f", got, p.MemRatio)
	}
}

func TestGeneratorStreamsAdvance(t *testing.T) {
	p := Profile{Name: "s", MemRatio: 1, StreamFrac: 1, Streams: 1, Footprint: 1 << 20}
	g := NewGenerator(p, 0, 1<<20, 3)
	prev := g.Next().Addr
	for i := 0; i < 100; i++ {
		cur := g.Next().Addr
		delta := int64(cur) - int64(prev)
		if delta != 8 && delta >= 0 { // 8B stride, allowing wraparound
			t.Fatalf("stream stride %d at step %d, want 8", delta, i)
		}
		prev = cur
	}
}

func TestClassStrings(t *testing.T) {
	if Low.String() != "L" || Medium.String() != "M" || High.String() != "H" {
		t.Error("class letters wrong")
	}
}

func TestZeroRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size region accepted")
		}
	}()
	NewGenerator(Profiles["milc"], 0, 0, 1)
}

func BenchmarkGeneratorNext(b *testing.B) {
	for _, p := range []Profile{ComputeHeavy(), Profiles["mcf_r"]} {
		b.Run(p.Name, func(b *testing.B) {
			g := NewGenerator(p, 0, 1<<30, 1)
			b.ReportAllocs()
			var sink cpu.Instr
			for i := 0; i < b.N; i++ {
				sink = g.Next()
			}
			_ = sink
		})
	}
}

// BenchmarkGeneratorNextRun shows the trace's cost on each side of the
// batch handoff. consumer is the core's side alone, per NextRun(8) call:
// it reads one filled batch over and over from its start instead of
// turning to the next. producer is the fill's side, per run record
// drawn. BenchmarkGeneratorNext pays for both, handoffs included.
func BenchmarkGeneratorNextRun(b *testing.B) {
	for _, p := range []Profile{ComputeHeavy(), Profiles["mcf_r"]} {
		b.Run("consumer/"+p.Name, func(b *testing.B) {
			g := NewGenerator(p, 0, 1<<30, 1)
			g.NextRun(8) // fills the first batch
			b.ReportAllocs()
			var sink cpu.Instr
			for i := 0; i < b.N; i++ {
				if g.pos == batchRecs {
					g.pos, g.rec = 1, g.cur.recs[0]
				}
				_, sink, _ = g.NextRun(8)
			}
			_ = sink
		})
		b.Run("producer/"+p.Name, func(b *testing.B) {
			// A generator not yet read has no fill in flight.
			g := NewGenerator(p, 0, 1<<30, 1)
			c := &cursor{src: g.ahead.src, streams: slices.Clone(g.ahead.streams)}
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += g.record(c, maxCount)
			}
			_ = sink
		})
	}
}
