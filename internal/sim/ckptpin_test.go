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
		"host-only":                {"e63f674307d3e6b48a5766005eb0fac99cd24b4e7dcdfc02ff425435a19c2725", 699660},
		"host-stall-heavy":         {"dd14860ab5bbc228f1da3aae4c6debb774c79fb89d761e9843c0ce1a342f3809", 601224},
		"nda-only-nrm2":            {"16b3e6831d095ee1e849d573667a9e0e98b1ce5b160c397042794535512b1c0a", 9139},
		"nda-only-copy-stochastic": {"b01ed29ee91052106c258b5dc82ead7415db10dc1b3681c4da4328f5f6752049", 13587},
		"mixed-mix1-dot":           {"31edfa17307bd9243cb680ce476517380f15abf137b82217276c26188905af1d", 620747},
		"mixed-mix3-copy-shared":   {"5a112c789c7f2d0f8d5d87b6bce9e9225b0a90b0f868d09151e26be6f884c0ac", 638333},
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
