package workload

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"chopim/internal/cpu"
)

// oracleGen is the generator's original recipe, drawing through
// math/rand's Rand: Float64() < p for every fraction, Intn for the
// stream pick. Generator must emit exactly its sequence.
type oracleGen struct {
	prof    Profile
	src     *countedSource
	rng     *rand.Rand
	dep     float64
	base    uint64
	streams []uint64
}

func newOracleGen(prof Profile, base, size uint64, seed int64) *oracleGen {
	o := &oracleGen{prof: prof, src: &countedSource{Source64: rand.NewSource(seed).(rand.Source64)}, dep: depFrac, base: base}
	o.rng = rand.New(o.src)
	if prof.DepFrac > 0 {
		o.dep = prof.DepFrac
	}
	if o.prof.Footprint > size {
		o.prof.Footprint = size
	}
	n := max(prof.Streams, 1)
	for i := 0; i < n; i++ {
		o.streams = append(o.streams, o.rng.Uint64()%o.prof.Footprint)
	}
	return o
}

// countedSource counts the outputs rand.Rand takes from its source: the
// draw count a Generator snapshot must name.
type countedSource struct {
	rand.Source64
	n uint64
}

func (c *countedSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countedSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// check fails t unless g's snapshot names the oracle's position: its
// draw count and stream cursors.
func (o *oracleGen) check(t *testing.T, g *Generator, at int) {
	t.Helper()
	st := g.Snapshot()
	if st.Draws != o.src.n || !slices.Equal(st.Streams, o.streams) {
		t.Fatalf("%s after instruction #%d: snapshot at draw %d, streams %v; oracle at draw %d, streams %v",
			o.prof.Name, at, st.Draws, st.Streams, o.src.n, o.streams)
	}
}

func (o *oracleGen) next() cpu.Instr {
	ser := o.rng.Float64() < o.dep
	if o.rng.Float64() >= o.prof.MemRatio {
		return cpu.Instr{Serialize: ser}
	}
	var off uint64
	if o.rng.Float64() < o.prof.StreamFrac {
		i := o.rng.Intn(len(o.streams))
		o.streams[i] = (o.streams[i] + 8) % o.prof.Footprint
		off = o.streams[i]
	} else {
		off = o.rng.Uint64() % o.prof.Footprint
	}
	return cpu.Instr{
		Mem:       true,
		Write:     o.rng.Float64() < o.prof.WriteFrac,
		Serialize: ser,
		Addr:      o.base + off&^7,
	}
}

// longRuns is a synthetic profile whose runs average ~500 plain
// instructions, so most overflow one record's count field and continue
// in records that carry no stop.
var longRuns = Profile{Name: "long_runs", Class: Low, MemRatio: 0.001, WriteFrac: 0.3,
	Footprint: 1 << 20, StreamFrac: 0.5, Streams: 3, DepFrac: 0.001}

// oracleProfiles is every Table II profile plus the three synthetic
// ones, in a fixed order.
func oracleProfiles() []Profile {
	var ps []Profile
	for _, p := range Profiles {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return append(ps, ComputeHeavy(), StallHeavy(), longRuns)
}

func TestGeneratorMatchesMathRandOracle(t *testing.T) {
	const n = 100_000
	// 64 MiB clips the largest footprints, exercising the wrap too.
	const base, size = 1 << 32, 64 << 20
	for i, p := range oracleProfiles() {
		seed := int64(1000 + i)
		g, o := NewGenerator(p, base, size, seed), newOracleGen(p, base, size, seed)
		for k := 0; k < n; k++ {
			if got, want := g.Next(), o.next(); got != want {
				t.Fatalf("%s Next #%d: %+v, oracle %+v", p.Name, k, got, want)
			}
		}
	}
}

// TestGeneratorNextRunMatchesOracle checks NextRun, under random max in
// [1, 8] and mixed with Next calls, against the oracle's per-instruction
// stream across at least three batches: every plain count and stopping
// instruction, and at each batch turn and one random record of each
// batch a snapshot naming the oracle's draw count and stream cursors.
func TestGeneratorNextRunMatchesOracle(t *testing.T) {
	const n = 100_000
	const base, size = 1 << 32, 64 << 20
	pick := rand.New(rand.NewSource(3))
	for i, p := range oracleProfiles() {
		seed := int64(1000 + i)
		g, o := NewGenerator(p, base, size, seed), newOracleGen(p, base, size, seed)
		plain := cpu.Instr{}
		turns, overflows, last, checkAt := 0, 0, g.cur, 0
		o.check(t, g, 0)
		for k := 0; k < n || turns < 3; {
			if pick.Intn(4) == 0 {
				if got, want := g.Next(), o.next(); got != want {
					t.Fatalf("%s Next #%d: %+v, oracle %+v", p.Name, k, got, want)
				}
				k++
			} else {
				limit := 1 + pick.Intn(8)
				got, stop, ok := g.NextRun(limit)
				for j := 0; j < got; j++ {
					if want := o.next(); want != plain {
						t.Fatalf("%s instruction #%d: NextRun counted it plain, oracle %+v", p.Name, k+j, want)
					}
				}
				k += got
				if ok {
					if want := o.next(); stop != want || !(stop.Mem || stop.Serialize) {
						t.Fatalf("%s instruction #%d: NextRun stopped at %+v, oracle %+v", p.Name, k, stop, want)
					}
					k++
				} else if got != limit {
					t.Fatalf("%s: NextRun(%d) returned %d plain and no stop", p.Name, limit, got)
				}
			}
			turned := g.cur != last
			if turned {
				turns++
				last = g.cur
				for _, r := range g.cur.recs {
					if r>>countShift == maxCount && r&recStop == 0 {
						overflows++
					}
				}
			}
			if turned || g.pos == checkAt {
				o.check(t, g, k)
				checkAt = 0
			}
			if turned {
				checkAt = 1 + pick.Intn(batchRecs)
			}
		}
		if p.Name == longRuns.Name && overflows == 0 {
			t.Errorf("%s: no run overflowed a record's count field", p.Name)
		}
	}
}

// TestGeneratorRestoreContinuesStream snapshots a generator mid-batch,
// on a batch's first record and on its last, and restores the snapshot
// into a fresh generator and into one standing at a later position of
// the same kind, which rewinds it. Each continues exactly on the
// oracle's stream across more than one batch.
func TestGeneratorRestoreContinuesStream(t *testing.T) {
	p := Profiles["soplex"]
	const base, size, seed = 0, 1 << 30, 5
	cases := []struct {
		name string
		at   func(g *Generator) bool
	}{
		{"mid-batch", func(g *Generator) bool { return g.pos == batchRecs/2 }},
		{"batch-start", func(g *Generator) bool { return g.pos == 1 && g.rec == g.cur.recs[0] }},
		{"batch-end", func(g *Generator) bool { return g.pos == batchRecs && g.rec == g.cur.recs[batchRecs-1] }},
	}
	// walk steps g by Next, checking it against o, until it stands at a
	// position where at holds after at least turns batch turns.
	walk := func(g *Generator, o *oracleGen, at func(*Generator) bool, turns int) {
		t.Helper()
		for last := g.cur; turns > 0 || !at(g); {
			if got, want := g.Next(), o.next(); got != want {
				t.Fatalf("walk: %+v, oracle %+v", got, want)
			}
			if g.cur != last {
				turns--
				last = g.cur
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live, o := NewGenerator(p, base, size, seed), newOracleGen(p, base, size, seed)
			walk(live, o, c.at, 2)
			st := live.Snapshot()
			o.check(t, live, -1)
			later := NewGenerator(p, base, size, seed)
			walk(later, newOracleGen(p, base, size, seed), c.at, 4)
			fresh := NewGenerator(p, base, size, seed)
			fresh.Restore(st)
			later.Restore(st)
			o.check(t, later, -1)
			for i := 0; i < 3*batchRecs*2; i++ {
				want := o.next()
				if a, b := fresh.Next(), later.Next(); a != want || b != want {
					t.Fatalf("restored generators diverge at instruction %d: fresh %+v, rewound %+v, oracle %+v", i, a, b, want)
				}
			}
			o.check(t, fresh, -1)
			o.check(t, later, -1)
		})
	}
}
