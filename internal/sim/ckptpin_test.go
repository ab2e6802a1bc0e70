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
		"host-only":                {"4a8bca5fd4bda57b86c2989e93eae334cc44d5b522f1acc31cbb27e1fe0dfaa1", 701069},
		"host-stall-heavy":         {"69b83561b49e79ae8dc149fc7e5344e6418c3b30ac4d6a25a3d5f7cbc6de8982", 602418},
		"nda-only-nrm2":            {"682ac399ea33a6f1224433f7cfebf6eea0603ee7f74a9cc6d65529d2e23bfae6", 9267},
		"nda-only-copy-stochastic": {"23aa916f19fb008913646f0df4f920bc76d33add0eee4146de8fcb7da5040967", 13715},
		"mixed-mix1-dot":           {"0fbde74a1825a5e11749b0f6784e7649700a12a9d0b228f7c4507af11e25d465", 621939},
		"mixed-mix3-copy-shared":   {"080dbc878fe37cde15c193a30a3fd69846bddff7cf3aa36ac5f12271e6f5ed53", 639529},
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
