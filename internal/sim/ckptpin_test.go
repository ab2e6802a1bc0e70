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
		"host-only":                {"b790370faed687ed9a8c188d263855a46bb2182683432dc1a12068f097e6ab9a", 701591},
		"host-stall-heavy":         {"266ccefe66a95d708764e1f0e21c5742f102e6949058b0dbc66abcb22a41210f", 602940},
		"nda-only-nrm2":            {"c60e55074b0d21fde8d4665720f8214ef70e99d46ebc2d86862fabbb11f7b3aa", 9749},
		"nda-only-copy-stochastic": {"b1192cd13eb4ac51aab6bfd04dfc7fe6e4e0c253c68634cc637d08365926d86d", 14200},
		"mixed-mix1-dot":           {"814e3a6f141ea3ea23d4018cfeeca4a21c1e837feb3b6707673a8d8da18f679d", 622464},
		"mixed-mix3-copy-shared":   {"4c9559dedb5d8bd78bf9fc5acc5932e80fa88d548d676fd586f91f260c7ff733", 640054},
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
