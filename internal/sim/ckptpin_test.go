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
// The hierarchy section and the lengths are the values the
// array-of-structs cache layout produced, so the packed tag arrays
// (cache.Cache) encode to the same bytes and ckptVersion stands. The
// whole-envelope hash additionally covers the DRAM section's per-bank
// horizon memo (HzStamp, Ready*), which records the horizons the
// scheduler last asked for: a scheduler change that keeps every
// decision can still move those values, and must re-pin only that
// hash. A deliberate format change re-pins all three and bumps
// ckptVersion in the same change. Every cut must also survive a decode
// and re-encode byte for byte, so no decoder drops an encoded field.
func TestCheckpointBytesPinned(t *testing.T) {
	const cut = 12_000
	want := map[string]struct {
		hier, all string
		n         int
	}{
		"host-only": {"f9e97eaf8e552525d3a559e52b51873e93a69b929574b513f7c989ce1a919e65",
			"46752fa36b0aaa55a34ac9dfe4fcb38f187546d48593678eec0f0840f91dce44", 880262},
		"host-stall-heavy": {"11d42dec4937eff66ccd904dd81a80db2231f9b42a534c2aca3d2f06b3afaf6f",
			"adea49f7ad4be108a3dc6647edbfde89947baedcfbee770e8b9d7acc0eab983d", 740452},
		"nda-only-nrm2": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"0e37f900c535875113c020d467548c0526dd37597c88202601a819e0efc6b40d", 13956},
		"nda-only-copy-stochastic": {"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"09d5767a97755562e7edb3f2c0f6560a3f417f5bfacd432d4debabfebfa3bfae", 18407},
		"mixed-mix1-dot": {"f0b5868060c804188d71ea46c623fa3b85c03d20c8f71b2e5a45412fd4424182",
			"5e719c1d3a72c8f7039857393907ce45261db3effcc7a00ee8a47c86dd37b592", 741250},
		"mixed-mix3-copy-shared": {"32eb41cbc51cc6755835509239013de281e5643054f1908d2049ce4c8c3dd14f",
			"cb8d69088024599311d4d6fac7f5a5254adda05be149f5c3d180e7946bc7e773", 765443},
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
