package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointBytesPinned pins the checkpoint encoding of every
// checkpoint workload cut at a fixed cycle: the envelope length and the
// whole envelope byte for byte. The DRAM state leaves out the per-bank
// horizon memo (HzStamp, Ready*), which records which banks the
// schedulers last asked about, and the controllers leave out their wake memo and the ver counter
// that keys it, so a scheduler change that keeps every decision leaves
// all three values alone. The pins catch an encoding change nobody
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
		"host-only":                {"67dba55d6c6c0082a4641630d1788d9bd84181727d9681b1d4348dab3b1b5641", 701392},
		"host-stall-heavy":         {"a736c667f652d0e5305b128060dfb883cb8f826b0965770408424bb20702d43f", 602741},
		"nda-only-nrm2":            {"0beca3175c4e67e886d855dc11cbec15fd1645715d3c6360819ead5b5216cca6", 9550},
		"nda-only-copy-stochastic": {"3240a98d34d8da5ebc1d2687539ca074ba7ed2fc7efa7099c52b21835c665af0", 14001},
		"mixed-mix1-dot":           {"11e2688f390a3242f0949b111057ee250e02f9e176f8d46eff468fd13e0317b6", 622265},
		"mixed-mix3-copy-shared":   {"7bba6612c22232c1c1a5724f9aaa8a22c36172972d0945042d0d1134d0e7f7c9", 639855},
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
