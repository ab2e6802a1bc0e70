package workload

import (
	"math/rand"
	"sort"
	"testing"

	"chopim/internal/cpu"
)

// oracleGen is the generator's original recipe, drawing through
// math/rand's Rand: Float64() < p for every fraction, Intn for the
// stream pick. Generator must emit exactly its sequence.
type oracleGen struct {
	prof    Profile
	rng     *rand.Rand
	dep     float64
	base    uint64
	streams []uint64
}

func newOracleGen(prof Profile, base, size uint64, seed int64) *oracleGen {
	o := &oracleGen{prof: prof, rng: rand.New(rand.NewSource(seed)), dep: depFrac, base: base}
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

// oracleProfiles is every Table II profile plus the two synthetic ones,
// in a fixed order.
func oracleProfiles() []Profile {
	var ps []Profile
	for _, p := range Profiles {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return append(ps, ComputeHeavy(), StallHeavy())
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

// TestGeneratorNextRunMatchesOracle checks NextRun against the oracle's
// per-instruction stream under random max in [1, 8]: every plain count
// and stopping instruction, and after each call the same draw count as
// a generator that made the same instructions through Next.
func TestGeneratorNextRunMatchesOracle(t *testing.T) {
	const n = 100_000
	const base, size = 1 << 32, 64 << 20
	pick := rand.New(rand.NewSource(3))
	for i, p := range oracleProfiles() {
		seed := int64(1000 + i)
		g, byNext := NewGenerator(p, base, size, seed), NewGenerator(p, base, size, seed)
		o := newOracleGen(p, base, size, seed)
		plain := cpu.Instr{}
		for k := 0; k < n; {
			limit := 1 + pick.Intn(8)
			got, stop, ok := g.NextRun(limit)
			for j := 0; j < got; j++ {
				byNext.Next()
				if want := o.next(); want != plain {
					t.Fatalf("%s instruction #%d: NextRun counted it plain, oracle %+v", p.Name, k+j, want)
				}
			}
			k += got
			if ok {
				byNext.Next()
				if want := o.next(); stop != want || !(stop.Mem || stop.Serialize) {
					t.Fatalf("%s instruction #%d: NextRun stopped at %+v, oracle %+v", p.Name, k, stop, want)
				}
				k++
			} else if got != limit {
				t.Fatalf("%s: NextRun(%d) returned %d plain and no stop", p.Name, limit, got)
			}
			if g.src.Draws() != byNext.src.Draws() {
				t.Fatalf("%s after instruction #%d: NextRun made %d draws, Next %d", p.Name, k, g.src.Draws(), byNext.src.Draws())
			}
		}
	}
}

// TestGeneratorRestoreContinuesStream checks a generator restored from a
// snapshot continues exactly where the snapshotted one did.
func TestGeneratorRestoreContinuesStream(t *testing.T) {
	p := Profiles["soplex"]
	live := NewGenerator(p, 0, 1<<30, 5)
	for i := 0; i < 12_345; i++ {
		live.Next()
	}
	st := live.Snapshot()
	restored := NewGenerator(p, 0, 1<<30, 5)
	restored.Restore(st)
	for i := 0; i < 10_000; i++ {
		if a, b := live.Next(), restored.Next(); a != b {
			t.Fatalf("restored generator diverges at instruction %d: %+v vs %+v", i, b, a)
		}
	}
}
