package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"chopim/internal/ndart"
)

// TestCheckpointBytesPinned pins the durable checkpoint encoding of
// every checkpoint workload cut at a fixed cycle: the envelope length,
// the cache-hierarchy section byte for byte, and the whole envelope.
// The DRAM section leaves out the per-bank horizon memo (HzStamp,
// Ready*), which records which banks the schedulers last asked about,
// and the controllers leave out their wake memo and the ver counter
// that keys it, so a scheduler change that keeps every decision leaves
// all three values alone. A deliberate format change re-pins them and bumps
// ckptVersion in the same change. Every cut must also survive a decode
// and re-encode byte for byte, so no decoder drops an encoded field.
func TestCheckpointBytesPinned(t *testing.T) {
	const cut = 12_000
	want := map[string]struct {
		hier, all string
		n         int
	}{
		"host-only": {"e761cdf1dccd10684634e09638b3855a24fbd2fc81e49abd730fda89e19e5f8d",
			"7595dc8695d206c5376051056089ceebdc217f4698930ed9fd54361936ff2efc", 796307},
		"host-stall-heavy": {"1db9f8ad4e5b268d16db8ceb55d6bffe916b014b0066966b6387c21d14749b07",
			"1b39d6a1dbeae718470cab279e6a90dd1da42c47cf0ac7cb2dfdd2f83f94f8b5", 689919},
		"nda-only-nrm2": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"093b0b823c8aa7b553f8e91feec9c09ead44c2e7a04f1d53e15fa6d0dde52a27", 9785},
		"nda-only-copy-stochastic": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"b8a4ece913f69ab68d3c07e8fdaa4349461a2123414ef38133b76d39e51fd53f", 14236},
		"mixed-mix1-dot": {"77179565b2c6a544792bddaf56155a081c5f109ddd8bcb26e96389bb84f8b559",
			"93f9b823a605073d92d912f80359ee9e02d3d02cbfba6177494f24ce9245f867", 709785},
		"mixed-mix3-copy-shared": {"dc47c119c95a62051b1b0664d2fc6031d1e75ddcfe7789fd51aba884181af833",
			"93286209197b790baf9bc6e5a54b0e7bdb1142032c2d4dd83832f04f1c19547b", 734822},
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
			var roots []*ndart.Handle
			if drv.h != nil {
				roots = append(roots, drv.h)
			}
			ck, _, err := s.SnapshotWithRoots(roots)
			if err != nil {
				t.Fatal(err)
			}
			b, err := EncodeCheckpoint(s.Cfg, ck)
			if err != nil {
				t.Fatal(err)
			}
			// The hierarchy section follows the header and its own
			// 8-byte length (see EncodeCheckpoint).
			hl := int(binary.LittleEndian.Uint64(b[ckptHeaderLen : ckptHeaderLen+8]))
			hier := b[ckptHeaderLen+8 : ckptHeaderLen+8+hl]
			p := want[w.name]
			if len(b) != p.n {
				t.Errorf("envelope is %d bytes, pinned %d", len(b), p.n)
			}
			if got := hash(hier); got != p.hier {
				t.Errorf("hierarchy section moved: sha256 %s, pinned %s", got, p.hier)
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
