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
// so a scheduler change that keeps every decision leaves all three
// values alone. A deliberate format change re-pins them and bumps
// ckptVersion in the same change. Every cut must also survive a decode
// and re-encode byte for byte, so no decoder drops an encoded field.
func TestCheckpointBytesPinned(t *testing.T) {
	const cut = 12_000
	want := map[string]struct {
		hier, all string
		n         int
	}{
		"host-only": {"f9e97eaf8e552525d3a559e52b51873e93a69b929574b513f7c989ce1a919e65",
			"ab57b556034d77192ac4f733add1632d4eae8f5e79b10291424651b2d06a3095", 870657},
		"host-stall-heavy": {"11d42dec4937eff66ccd904dd81a80db2231f9b42a534c2aca3d2f06b3afaf6f",
			"9aea506d24121fe90b064c2fe17ec4b1d1812f2f7e57dfa431dc9f5a79c04f09", 733052},
		"nda-only-nrm2": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"c72fd05c71a426e3040009ea6aaeb9493133696ecd0acb801f19d77ebd4cd93d", 9836},
		"nda-only-copy-stochastic": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"1ca8d620e710376d2cd8ba2fe70f815d3ec7577a620288262d5dbe967479b7fe", 14287},
		"mixed-mix1-dot": {"f0b5868060c804188d71ea46c623fa3b85c03d20c8f71b2e5a45412fd4424182",
			"66e6f7c83d35a4f2cf3b327957f6bc144e7f1622b0a3e4d69d01295ca1c5c127", 733775},
		"mixed-mix3-copy-shared": {"32eb41cbc51cc6755835509239013de281e5643054f1908d2049ce4c8c3dd14f",
			"b7ccb0b8cb36d2b8a4bf44eca3ec25ab3025b18a32c748da8f072fce0e896dec", 757968},
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
