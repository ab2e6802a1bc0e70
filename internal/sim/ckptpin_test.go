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
		"host-only":                {"297223a9f4787ba1805722ffd842580e84381c3825c4be3b95d65082b418a857", 701403},
		"host-stall-heavy":         {"6feb6753ca40ef9ed325bc3f764ee6230ac353abd5a5cfa1165ff9af7344bd8e", 602752},
		"nda-only-nrm2":            {"30bf13a617c3ddf38913b898fe5bf5cde4eadbcba3945df4350a70bc83b06899", 9561},
		"nda-only-copy-stochastic": {"78305293be57eaf7d46c92793fd28f2c49b7db810bf91b48dd45e32eb5e9db54", 14012},
		"mixed-mix1-dot":           {"4e8008de3445c5c601a82560047076ae1c3635ee8a0b66f69e844875d5fe88d6", 622276},
		"mixed-mix3-copy-shared":   {"a088983ddb6c0ecf29be411a54ebfdfcfd5a3dc3c0c7cd1d6ed68e66843bb0e1", 639866},
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
