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
		"host-only": {"f9e97eaf8e552525d3a559e52b51873e93a69b929574b513f7c989ce1a919e65",
			"0debc0933ba481c1f3fa95bc0d315e745ab10c7c253913879e909656ae26aaa3", 870609},
		"host-stall-heavy": {"11d42dec4937eff66ccd904dd81a80db2231f9b42a534c2aca3d2f06b3afaf6f",
			"11f775a74bec9f6e7b7ad0f4efd6a7f7fd7b859ee358f742569e0ee4eda44a06", 733004},
		"nda-only-nrm2": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"9f78c18287519d57d66e71166ad7d37239d6ed49cc1fa420c42566f5f51bc6bc", 9802},
		"nda-only-copy-stochastic": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"cf41f89a4c43bfff9828688d7a364ef5ebba401bba998748a9aac61f0fbe4bba", 14253},
		"mixed-mix1-dot": {"f0b5868060c804188d71ea46c623fa3b85c03d20c8f71b2e5a45412fd4424182",
			"feb78d11f76e893f5ce651361fece2546c71c9a69c2555d49ca3f130bdafe958", 733727},
		"mixed-mix3-copy-shared": {"32eb41cbc51cc6755835509239013de281e5643054f1908d2049ce4c8c3dd14f",
			"ae9f38667ede4125e83a02abbec42ce5eecc9eaa80e6fbdde814ea713c8afad9", 757922},
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
