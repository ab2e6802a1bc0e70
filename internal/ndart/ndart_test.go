package ndart

import (
	"testing"

	"chopim/internal/addrmap"
	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/osmem"
)

// harness bundles a runtime over a live memory system with a manual clock.
type harness struct {
	rt  *Runtime
	mem *dram.Mem
	mcs []*mc.Controller
	eng *nda.Engine
	now int64
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	g := dram.DefaultGeometry()
	mem, err := dram.New(g)
	if err != nil {
		t.Fatal(err)
	}
	os, err := osmem.NewOS(layoutMapper(t, g, true))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{mem: mem}
	for ch := 0; ch < g.Channels; ch++ {
		h.mcs = append(h.mcs, mc.NewController(mem, ch))
	}
	h.eng = nda.NewEngine(nda.DefaultConfig(), mem, h.mcs)
	h.rt = New(os, h.eng, h.mcs, func() int64 { return h.now })
	return h
}

func (h *harness) run(t *testing.T, hd *Handle, max int64) {
	t.Helper()
	for i := int64(0); i < max; i++ {
		for _, c := range h.mcs {
			c.Tick(h.now)
		}
		for ch := range h.mcs {
			h.eng.TickChannel(ch, h.now, false)
		}
		h.now++
		if hd.Done() {
			return
		}
	}
	t.Fatalf("handle not done after %d cycles", max)
}

func TestVectorAllocationAndShares(t *testing.T) {
	h := newHarness(t)
	v, err := h.rt.NewVector(1<<20, Shared) // 4 MiB: spans all ranks
	if err != nil {
		t.Fatal(err)
	}
	g := dram.DefaultGeometry()
	total := 0
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			n := v.layout.shareLen(ch, r)
			if n == 0 {
				t.Errorf("rank (%d,%d) holds no share of a 4 MiB vector", ch, r)
			}
			total += n
		}
	}
	if want := 1 << 20 * 4 / dram.BlockBytes; total != want {
		t.Errorf("share blocks total %d, want %d", total, want)
	}
}

func TestPrivateAllocationGivesFullShares(t *testing.T) {
	h := newHarness(t)
	const n = 64 * 1024 // 256 KiB per NDA
	v, err := h.rt.NewVector(n, Private)
	if err != nil {
		t.Fatal(err)
	}
	g := dram.DefaultGeometry()
	want := n * 4 / dram.BlockBytes
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			got := v.layout.shareLen(ch, r)
			if got < want/2 || got > want*2 {
				t.Errorf("private share on (%d,%d) = %d blocks, want ~%d", ch, r, got, want)
			}
		}
	}
}

func TestOperandsShareColor(t *testing.T) {
	h := newHarness(t)
	a, _ := h.rt.NewVector(1<<18, Shared)
	b, _ := h.rt.NewVector(1<<18, Shared)
	if a.Color() != b.Color() {
		t.Errorf("runtime colors differ: %#x vs %#x", uint64(a.Color()), uint64(b.Color()))
	}
}

func TestSpecValidation(t *testing.T) {
	h := newHarness(t)
	x, _ := h.rt.NewVector(1024, Shared)
	y, _ := h.rt.NewVector(2048, Shared)
	if _, err := h.rt.Dot(x, y); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := h.rt.Launch(Spec{Kind: nda.OpDOT, Reads: []*Vector{x}}); err == nil {
		t.Error("wrong operand count accepted")
	}
	if _, err := h.rt.Launch(Spec{Kind: nda.OpCOPY, Reads: []*Vector{x}}); err == nil {
		t.Error("missing result operand accepted")
	}
}

func TestCopyEndToEnd(t *testing.T) {
	h := newHarness(t)
	const n = 128 * 1024
	x, _ := h.rt.NewVector(n, Shared)
	y, _ := h.rt.NewVector(n, Shared)
	hd, err := h.rt.Copy(y, x)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, hd, 10_000_000)
	if h.mem.Counts().NDARD != int64(n*4/dram.BlockBytes) {
		t.Errorf("NDA reads = %d, want %d", h.mem.Counts().NDARD, n*4/dram.BlockBytes)
	}
}

func TestGranularityLaunchCount(t *testing.T) {
	h := newHarness(t)
	h.rt.MaxBlocksPerInstr = 64
	const n = 256 * 1024 // 1 MiB = 16384 blocks
	x, _ := h.rt.NewVector(n, Shared)
	hd, err := h.rt.Nrm2(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(16384 / 64); h.rt.Launches != want {
		t.Errorf("launches = %d, want %d", h.rt.Launches, want)
	}
	h.run(t, hd, 10_000_000)
}

// TestMisalignedOperandsRefused gives one operand another color: both
// entry points, Launch (through Dot) and MacroFor, must return an error
// and send no launch packet.
func TestMisalignedOperandsRefused(t *testing.T) {
	h := newHarness(t)
	x, err := h.rt.NewVector(64*1024, Shared)
	if err != nil {
		t.Fatal(err)
	}
	y, err := h.rt.NewVector(64*1024, Shared)
	if err != nil {
		t.Fatal(err)
	}
	y.color ^= 1 << 20
	if _, err := h.rt.Dot(x, y); err == nil {
		t.Error("Dot accepted misaligned operands")
	}
	if _, err := h.rt.MacroFor(4, func(int) Spec { return DotSpec(x, y) }); err == nil {
		t.Error("MacroFor accepted misaligned operands")
	}
	if _, err := h.rt.Copy(y, x); err == nil {
		t.Error("Copy accepted a misaligned result")
	}
	for ch, c := range h.mcs {
		if r, w := c.QueueOccupancy(); r+w != 0 {
			t.Errorf("controller %d holds %d reads and %d writes after refused launches", ch, r, w)
		}
	}
	if h.rt.Launches != 0 {
		t.Errorf("launches = %d after refused calls, want 0", h.rt.Launches)
	}
}

func TestRowViewCoversRow(t *testing.T) {
	h := newHarness(t)
	m, err := h.rt.NewMatrix(128, 512, Shared)
	if err != nil {
		t.Fatal(err)
	}
	v := m.RowView(3)
	if v.Len() != 512 {
		t.Errorf("row view length %d", v.Len())
	}
	wantBlocks := 512 * 4 / dram.BlockBytes
	total := 0
	g := dram.DefaultGeometry()
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			total += v.layout.shareLen(ch, r)
		}
	}
	if total != wantBlocks {
		t.Errorf("row view covers %d blocks, want %d", total, wantBlocks)
	}
	if v.Color() != m.Color() {
		t.Error("row view color differs from parent")
	}
}

func TestRowViewBounds(t *testing.T) {
	h := newHarness(t)
	m, _ := h.rt.NewMatrix(4, 64, Shared)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range RowView did not panic")
		}
	}()
	m.RowView(4)
}

func TestJoinHandle(t *testing.T) {
	a := &Handle{pending: 1}
	b := &Handle{}
	j := Join(a, b)
	if j.Done() {
		t.Error("join done while child pending")
	}
	a.complete(5)
	if !j.Done() {
		t.Error("join not done after children complete")
	}
}

// TestGuardOpsPassOnLegalTraffic arms NDA-side bounds protection on a
// normal op: every generated access must pass its own launch bounds.
func TestGuardOpsPassOnLegalTraffic(t *testing.T) {
	h := newHarness(t)
	h.rt.GuardOps = true
	x, _ := h.rt.NewVector(64*1024, Shared)
	y, _ := h.rt.NewVector(64*1024, Shared)
	hd, err := h.rt.Copy(y, x)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, hd, 10_000_000) // panics on any protection fault
}

// TestDecodeCacheSharedAcrossRuntimes exercises the process-global
// decode cache: two runtimes over identical (but distinct) memory
// systems perform the same allocation sequence, so their vectors cover
// the same physical span under the same mapping and must share one
// immutable decoded layout instead of each re-decoding it.
func TestDecodeCacheSharedAcrossRuntimes(t *testing.T) {
	h1 := newHarness(t)
	h2 := newHarness(t)
	v1, err := h1.rt.NewVector(64*1024, Shared)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := h2.rt.NewVector(64*1024, Shared)
	if err != nil {
		t.Fatal(err)
	}
	if v1.base != v2.base || v1.bytes != v2.bytes {
		t.Fatalf("allocation sequences diverged: (%#x,%d) vs (%#x,%d)",
			v1.base, v1.bytes, v2.base, v2.bytes)
	}
	if v1.layout == nil || v1.layout != v2.layout {
		t.Error("identical spans decoded twice: layouts not shared across runtimes")
	}
}

// TestDecodeCacheDistinguishesMappings pins the fingerprint key: the
// same physical span under a different bank reservation decodes
// differently and must not share a layout.
func TestDecodeCacheDistinguishesMappings(t *testing.T) {
	fp := func(reserved int) string {
		m, err := addrmap.New(dram.DefaultGeometry(), reserved)
		if err != nil {
			t.Fatal(err)
		}
		return m.Fingerprint()
	}
	if fp(0) == fp(1) || fp(1) == fp(2) {
		t.Fatal("distinct reservations share a fingerprint")
	}
	if fp(1) != fp(1) {
		t.Fatal("equal mappings have unequal fingerprints")
	}
}
