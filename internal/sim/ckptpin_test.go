package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"chopim/internal/ndart"
)

// TestCheckpointBytesPinned pins the checkpoint encoding of
// every checkpoint workload cut at a fixed cycle: the envelope length,
// the cache-hierarchy section byte for byte, and the whole envelope.
// The DRAM section leaves out the per-bank horizon memo (HzStamp,
// Ready*), which records which banks the schedulers last asked about,
// and the controllers leave out their wake memo and the ver counter
// that keys it, so a scheduler change that keeps every decision leaves
// all three values alone. The pins catch an encoding change nobody
// meant; no encoded checkpoint outlives its process, so a deliberate
// change re-pins them without bumping ckptVersion. Every cut must also
// survive a decode and re-encode byte for byte, so no decoder drops an
// encoded field.
func TestCheckpointBytesPinned(t *testing.T) {
	const cut = 12_000
	want := map[string]struct {
		hier, all string
		n         int
	}{
		"host-only": {"9e6ca874e7d8691f8fcb05bdb21259541ea426c2a512fbd26fb0a6dff09e278c",
			"3130cada6395ad45d36e27bc9995c43b0cadc403340323d943815f105f907fa3", 778232},
		"host-stall-heavy": {"9faf485b94ad60bd6566841a1d03ff7cbb61be60c2896d13ac5020f9650bc329",
			"4cb9b3b5b452cdec15a6b692c05c09ee7cd94a70b40cd88b0d303efba517b7a9", 672905},
		"nda-only-nrm2": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"371200f2f28fc8729eb4261457faf8307d1f3aadf9ba0b747e0e6ca4f2df84a6", 9785},
		"nda-only-copy-stochastic": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"74c41769a4ff65a3f38d3a96b7899ddcc976690be7a10f4146fe925fda07aa4e", 14236},
		"mixed-mix1-dot": {"3528493e42cc923f3ad399c02707958cb51ccb05627ef03a40c94dc46147f3f6",
			"95396db0111b69a94d3015f5abfc34feb158f52de9b64deb27c7438b29ba4c85", 693139},
		"mixed-mix3-copy-shared": {"b368b0342019efd7ada443482811d22480b4655e1caf261724323926a080fc8d",
			"71d84cba2591b5d50ce947c00d586ac0f9e5e0a725fba150dc9acba32c59464f", 718836},
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
