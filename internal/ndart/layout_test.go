package ndart

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
	"chopim/internal/nda"
	"chopim/internal/osmem"
)

// layoutMapper builds the Skylake-like mapping over g, wrapped in the
// partitioned mapping (one reserved bank) when partitioned is set.
func layoutMapper(t testing.TB, g dram.Geometry, partitioned bool) addrmap.Mapper {
	t.Helper()
	base, err := addrmap.NewSkylakeLikeChecked(g)
	if err != nil {
		t.Fatal(err)
	}
	if !partitioned {
		return base
	}
	return addrmap.NewPartitioned(base, 1)
}

// layoutRuntime builds a runtime with only what operand layouts need:
// an OS over the mapping. It launches nothing.
func layoutRuntime(t testing.TB, g dram.Geometry, partitioned bool) *Runtime {
	t.Helper()
	os, err := osmem.NewOS(layoutMapper(t, g, partitioned))
	if err != nil {
		t.Fatal(err)
	}
	return New(os, nil, nil, func() int64 { return 0 })
}

func drain(it nda.Iter) []dram.Addr {
	var out []dram.Addr
	for a, ok := it(); ok; a, ok = it() {
		out = append(out, a)
	}
	return out
}

// checkShareMatchesDecode compares v's layout with a direct decode of
// every block of its span. For each rank, draining the whole share must
// give exactly the blocks m.Decode places on that rank, in address
// order; chunk-sized slices must concatenate to the same sequence; and
// controlAddr must be the first of them.
func checkShareMatchesDecode(t testing.TB, m addrmap.Mapper, v *Vector, chunk int) {
	t.Helper()
	g := m.Geometry()
	want := make([][][]dram.Addr, g.Channels)
	for ch := range want {
		want[ch] = make([][]dram.Addr, g.Ranks)
	}
	for pa := v.base; pa < v.base+v.bytes; pa += dram.BlockBytes {
		a := m.Decode(pa)
		want[a.Channel][a.Rank] = append(want[a.Channel][a.Rank], a)
	}
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			w := want[ch][r]
			n := v.layout.shareLen(ch, r)
			if got := drain(v.iterFor(ch, r, 0, n)); !slices.Equal(got, w) {
				t.Fatalf("rank (%d,%d): share yields %d blocks, decode places %d (or their order differs)",
					ch, r, len(got), len(w))
			}
			var cat []dram.Addr
			for from := 0; from < n; from += chunk {
				cat = append(cat, drain(v.iterFor(ch, r, from, chunk))...)
			}
			if !slices.Equal(cat, w) {
				t.Fatalf("rank (%d,%d): %d-block chunks concatenate to a different sequence", ch, r, chunk)
			}
			if tail := drain(v.iterFor(ch, r, n, chunk)); len(tail) != 0 {
				t.Fatalf("rank (%d,%d): a slice past the share's end yields %d blocks", ch, r, len(tail))
			}
			ctrl, ok := v.controlAddr(ch, r)
			if ok != (len(w) > 0) || ok && ctrl != w[0] {
				t.Fatalf("rank (%d,%d): controlAddr = %+v, %v; want the share's first block", ch, r, ctrl, ok)
			}
		}
	}
}

// TestShareMatchesDecode checks every operand kind the runtime builds
// (Shared, Private and a RowView whose span starts and ends mid-row),
// plus a vector at a base the colored allocator did not pick, against a
// direct decode, over 1/2/4 channels x 1/2/4/8 ranks with and without
// bank partitioning.
func TestShareMatchesDecode(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		for _, ranks := range []int{1, 2, 4, 8} {
			for _, partitioned := range []bool{false, true} {
				g := dram.DefaultGeometry()
				g.Channels, g.Ranks = channels, ranks
				name := fmt.Sprintf("%dch_%drk_partitioned=%v", channels, ranks, partitioned)
				t.Run(name, func(t *testing.T) {
					rt := layoutRuntime(t, g, partitioned)
					shared, err := rt.NewVector(64*1024, Shared)
					if err != nil {
						t.Fatal(err)
					}
					private, err := rt.NewVector(2048, Private)
					if err != nil {
						t.Fatal(err)
					}
					// 48K elements one system row into a colored
					// allocation: a base the colored allocator did not
					// pick, as a layout that ignores colors would.
					row := rt.os.SystemRowBytes()
					backing, err := rt.NewVector(48*1024+int(row/4), Shared)
					if err != nil {
						t.Fatal(err)
					}
					uncolored := &Vector{rt: rt, base: backing.base + row, n: 48 * 1024, bytes: 48 * 1024 * 4}
					uncolored.color = rt.os.ColorOf(uncolored.base)
					uncolored.indexBlocks()
					mat, err := rt.NewMatrix(64, 200, Shared) // 800-byte rows
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						name string
						v    *Vector
					}{
						{"Shared", shared}, {"Private", private}, {"Uncolored", uncolored},
						{"RowView", mat.RowView(3)},
					} {
						t.Run(c.name, func(t *testing.T) {
							checkShareMatchesDecode(t, rt.mapper, c.v, 7)
						})
					}
				})
			}
		}
	}
}

// FuzzShareMatchesDecode decodes arbitrary spans, block-aligned
// anywhere in the address space, under arbitrary channel and rank
// counts, with arbitrary chunk sizes.
func FuzzShareMatchesDecode(f *testing.F) {
	f.Add(uint8(1), uint8(1), true, uint64(0), uint16(4096), uint16(64))
	f.Add(uint8(2), uint8(3), false, uint64(123457), uint16(333), uint16(1))
	f.Add(uint8(0), uint8(0), true, uint64(1<<30), uint16(1), uint16(5))
	f.Fuzz(func(t *testing.T, chLog, rkLog uint8, partitioned bool, start uint64, nBlocks, chunk uint16) {
		g := dram.DefaultGeometry()
		g.Channels, g.Ranks = 1<<(chLog%3), 1<<(rkLog%4)
		m := layoutMapper(t, g, partitioned)
		n := uint64(nBlocks%8192) + 1
		capBlocks := g.Capacity() / dram.BlockBytes
		base := start % (capBlocks - n + 1) * dram.BlockBytes
		bytes := n * dram.BlockBytes
		v := &Vector{base: base, bytes: bytes, layout: decodeLayout(m, base, bytes)}
		checkShareMatchesDecode(t, m, v, int(chunk%256)+1)
	})
}

// layoutFootprint sums cap x element size over every slice reachable
// from v, attributing each slice to the path it was reached by.
func layoutFootprint(t *testing.T, v reflect.Value, path string, out map[string]int) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			layoutFootprint(t, v.Elem(), path, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			layoutFootprint(t, v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Slice:
		out[path] += v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			layoutFootprint(t, v.Index(i), path, out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			layoutFootprint(t, v.Index(i), path, out)
		}
	case reflect.Map, reflect.Interface, reflect.Chan, reflect.String, reflect.Func:
		t.Errorf("%s: a %v in a layout is not counted; extend layoutFootprint", path, v.Kind())
	}
}

// TestLayoutFootprint pins a layout's host memory at a quarter byte per
// 64-byte block on the Fig 14-class operand: 8 ranks per channel,
// Private, 2 MiB per rank. Each rank's share is whole DRAM rows of 128
// blocks, one 12-byte run each (~0.09 per block), plus append slack.
// The walk is by reflection, so a field added to vecLayout later is
// counted and named in the failure.
func TestLayoutFootprint(t *testing.T) {
	g := dram.DefaultGeometry()
	g.Ranks = 8
	rt := layoutRuntime(t, g, true)
	v, err := rt.NewVector(2<<20/4, Private)
	if err != nil {
		t.Fatal(err)
	}
	blocks := int(v.bytes / dram.BlockBytes)
	per := map[string]int{}
	layoutFootprint(t, reflect.ValueOf(v.layout), "vecLayout", per)
	total := 0
	for _, b := range per {
		total += b
	}
	t.Logf("layout: %d bytes for %d blocks (%.2f per block)", total, blocks, float64(total)/float64(blocks))
	if 4*total > blocks {
		t.Errorf("layout holds %d bytes for %d blocks (%.2f per block), want at most 0.25 per block; by field: %v",
			total, blocks, float64(total)/float64(blocks), per)
	}
}

// TestGuardRefusesForeignBlocks complements TestGuardOpsPassOnLegalTraffic:
// an instruction's guard accepts every block of its own chunk, and
// refuses the next chunk's blocks and the blocks of an operand it does
// not name.
func TestGuardRefusesForeignBlocks(t *testing.T) {
	h := newHarness(t)
	h.rt.MaxBlocksPerInstr = 64
	x, _ := h.rt.NewVector(64*1024, Shared)
	y, _ := h.rt.NewVector(64*1024, Shared)
	z, _ := h.rt.NewVector(64*1024, Shared)
	bps := h.rt.rankOpBPs(Spec{Kind: nda.OpCOPY, Reads: []*Vector{x}, Write: y}, 0, 0, &Handle{})
	if len(bps) < 2 {
		t.Fatalf("rank share split into %d instructions, want at least 2", len(bps))
	}
	cur, next := bps[0], bps[1]
	guard := h.rt.buildGuard(cur)
	for _, v := range []*Vector{x, y} {
		for _, a := range drain(v.iterFor(cur.ch, cur.r, cur.from, cur.n)) {
			if !guard(a) {
				t.Fatalf("guard refuses %+v of its own chunk", a)
			}
		}
		for _, a := range drain(v.iterFor(next.ch, next.r, next.from, next.n)) {
			if guard(a) {
				t.Fatalf("guard accepts %+v of the next chunk", a)
			}
		}
	}
	for _, a := range drain(z.iterFor(cur.ch, cur.r, cur.from, cur.n)) {
		if guard(a) {
			t.Fatalf("guard accepts %+v of an operand the instruction does not name", a)
		}
	}
}

// TestGuardRefusesRunNeighbours checks the guard's interval ends. The
// instruction's slice starts and ends mid-run; for every maximal run of
// consecutive block numbers its operands cover, the guard must refuse
// the block one before the run and the block one past it, unless the
// instruction itself covers that block through another operand.
func TestGuardRefusesRunNeighbours(t *testing.T) {
	h := newHarness(t)
	h.rt.MaxBlocksPerInstr = 200 // not a multiple of the 128-block row
	x, _ := h.rt.NewVector(64*1024, Shared)
	y, _ := h.rt.NewVector(64*1024, Shared)
	bps := h.rt.rankOpBPs(Spec{Kind: nda.OpCOPY, Reads: []*Vector{x}, Write: y}, 0, 0, &Handle{})
	if len(bps) < 3 {
		t.Fatalf("rank share split into %d instructions, want at least 3", len(bps))
	}
	bp := bps[1]
	guard := h.rt.buildGuard(bp)
	c := x.layout.codec
	own := map[uint32]bool{}
	var keys [][]uint32
	for _, v := range []*Vector{x, y} {
		var ks []uint32
		for _, a := range drain(v.iterFor(bp.ch, bp.r, bp.from, bp.n)) {
			ks = append(ks, c.pack(a))
			own[c.pack(a)] = true
		}
		keys = append(keys, ks)
	}
	checked := 0
	for _, ks := range keys {
		for i, k := range ks {
			var edges []uint32
			if i == 0 || ks[i-1] != k-1 {
				edges = append(edges, k-1)
			}
			if i == len(ks)-1 || ks[i+1] != k+1 {
				edges = append(edges, k+1)
			}
			for _, e := range edges {
				if own[e] {
					continue
				}
				checked++
				if a := c.unpack(bp.ch, bp.r, e); guard(a) {
					t.Fatalf("guard accepts %+v, next to a run of the instruction's blocks", a)
				}
			}
		}
	}
	if checked < 4 {
		t.Fatalf("only %d run neighbours checked, want one before and one past each operand's runs", checked)
	}
}

// TestIterForAllocs pins an operand iterator at two heap allocations,
// its closure and its walk state, however many runs the slice spans:
// iterFor runs once per operand of every NDA instruction launched.
func TestIterForAllocs(t *testing.T) {
	rt := layoutRuntime(t, dram.DefaultGeometry(), true)
	v, err := rt.NewVector(64*1024, Shared)
	if err != nil {
		t.Fatal(err)
	}
	n := v.layout.shareLen(0, 0)
	allocs := testing.AllocsPerRun(100, func() {
		it := v.iterFor(0, 0, 100, n)
		for _, ok := it(); ok; _, ok = it() {
		}
	})
	if allocs > 2 {
		t.Errorf("iterFor over %d blocks allocates %.0f times, want 2", n-100, allocs)
	}
}
