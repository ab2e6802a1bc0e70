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
		"host-only":                {"a3331318618b5a9094bcc80e7c7d35832c2c0693cb55a8eee0604344ce8366b1", 699660},
		"host-stall-heavy":         {"d880d62f98cbbe0ac5779ecb385e135a77b7683d90e9e07666fe41637e9ae116", 601224},
		"nda-only-nrm2":            {"c8a7dca8cac9361305a674f22a9028cfc1537ecf4afe0d864b0432c8e7627215", 9139},
		"nda-only-copy-stochastic": {"73aaf191d9fb1d133ef4dd46a1ad815d29e0bb2643d147ad9baa38454ee45a48", 13587},
		"mixed-mix1-dot":           {"16cf3d794a22f15c510b5969d99b433b98e422a44be7a56c908ba49edb94b701", 620747},
		"mixed-mix3-copy-shared":   {"c7088a75937245499212902c1ff872c0e1e91405343a8be5cca4d73d9beefcf6", 638333},
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
