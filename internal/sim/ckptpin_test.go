package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointBytesPinned pins the checkpoint encoding of every
// checkpoint workload cut at a fixed cycle: the envelope length and the
// whole envelope byte for byte. The DRAM state carries only timing and
// row state, and the controllers leave out their wake memo and the ver
// counter that keys it, so a scheduler change that keeps every decision
// leaves the pins alone. The pins catch an encoding change nobody
// meant; no encoded checkpoint outlives its process, so a deliberate
// change re-pins them without bumping ckptVersion. Every cut must also
// survive a decode and re-encode byte for byte, so no decoder drops an
// encoded field.
func TestCheckpointBytesPinned(t *testing.T) {
	const cut = 12_000
	want := map[string]struct {
		all string
		n   int
	}{
		"host-only":                {"16a7580e57aa5bcf479bc89c6eecb47144db907316fea61587235696c778726e", 700981},
		"host-stall-heavy":         {"7cd04ecfe4f3338aefcaa4b6e12ec49b9487ff7bb6dbddbc3d08ed6d5f684bbc", 602330},
		"nda-only-nrm2":            {"7ddd1526400a8246851804fa60e92c3715aea539dd212c46b068a0cb8bc2572e", 9179},
		"nda-only-copy-stochastic": {"3886b4e46810475498b1828d3d9fb183d10d51643d97e312224bf918e4eb777f", 13627},
		"mixed-mix1-dot":           {"cfd03cfd881400d1c285619de9555d39f5b83a3ac51b914c5f7138d9723f76b8", 621851},
		"mixed-mix3-copy-shared":   {"e4b979f656c1e85c5f393ad0b51537587ac67659ee07fa843a7e4e714e9d69f3", 639441},
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, w := range ckWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			s, err := New(w.cfg())
			if err != nil {
				t.Fatal(err)
			}
			app, err := newCkApp(s, w.op, w.n)
			if err != nil {
				t.Fatal(err)
			}
			drv := &ckDriver{app: app}
			drv.relaunch(t, s)
			ckAdvance(t, s, drv, cut, true)
			ck, _ := drv.cut(t, s)
			b, err := EncodeCheckpoint(s.Cfg, ck)
			if err != nil {
				t.Fatal(err)
			}
			p := want[w.name]
			if len(b) != p.n {
				t.Errorf("envelope is %d bytes, pinned %d", len(b), p.n)
			}
			if got := hash(b); got != p.all {
				t.Errorf("envelope moved: sha256 %s, pinned %s", got, p.all)
			}
			// Decoding must keep every encoded field: re-encoding the
			// decoded checkpoint reproduces the file byte for byte.
			dec, err := DecodeCheckpoint(s.Cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			re, err := EncodeCheckpoint(s.Cfg, dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, b) {
				t.Errorf("re-encoding the decoded checkpoint gives %d bytes (sha256 %s), not the original", len(re), hash(re))
			}
		})
	}
}
