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
		"host-only":                {"3a36a6961fec82ecf35e7b680447b4f93b6a789091493b29b6c57c5ef8d1e0d9", 701329},
		"host-stall-heavy":         {"6ed26efad54366f11ad1de50caf087b660431e221207ea6fe9e2baf91a3cc13a", 602678},
		"nda-only-nrm2":            {"8421ceba9d19fb12ddf464fe8b184b4c6bbfadc2c40309ccdfb6fc01fbfe932d", 9491},
		"nda-only-copy-stochastic": {"6036b8e0214bd94d20197e0e7e410ec9a43e5458103ff451198ee7a8193e2e4c", 13939},
		"mixed-mix1-dot":           {"6364812ca1670b48d1818ea4eaf89bb360e23875a3314f83b1eda1f17ae92d77", 622199},
		"mixed-mix3-copy-shared":   {"fff22eb3983f39acfe7b6d9b51e0098afb5d0b5095e74204403a8109ca5bc60e", 639789},
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
