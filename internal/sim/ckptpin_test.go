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
		"host-only": {"36741e61ad3413fbc5839065c03751130931a69bbc6573d483cfef120bb7a563",
			"a035587c7e47d4aab159f2aa1e8bcfe498b71d016f73b819913a1d86eeed6ec8", 796381},
		"host-stall-heavy": {"5276cb8aa436117bd0844266e1b12ff1482e473b758889e7aa2b708fdcc29af8",
			"dd4863dc19f931e5f43de2b339db4fbb80ef12f9a183cbbc746467f4b254e6d0", 689969},
		"nda-only-nrm2": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"09adc3c41091a465723fde3e2a2af81ec4f75203a9a5a3e90ff938eff5408705", 9802},
		"nda-only-copy-stochastic": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"09cb23f677e02d147d771be1aaa106619866f22b9daa2fce3abc808af132ae18", 14253},
		"mixed-mix1-dot": {"8aa5c770bd4c8078f7738ebc5ccaad72a58608c957eee95d10e9cf348bc39008",
			"295be87dbb5b95e5ef49ef3bc7f0ee6558d4eb94dbf1f45c41dc5046f564a65a", 709835},
		"mixed-mix3-copy-shared": {"5b65e23b7a431181c23b8d54e3c19d05837c0c03a5128c9be1dc0b17ec13a3b6",
			"83a83dea8d2d5f729e670c7ad2f17f461ea574ce0989983357e5f1bc9c16a203", 734872},
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
