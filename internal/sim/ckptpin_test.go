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
		"host-only":                {"1fde8753ffee3e00974ec7a18730ff832ba9d339a284842feb62d26bdee62b96", 699600},
		"host-stall-heavy":         {"a6f39335565c9e545055f49691bb1604ee2cec3776f539af0db82c71e7488e0a", 601164},
		"nda-only-nrm2":            {"9295475507f38a2a760f257639d3cfb011b5f59c27770402c928b35eb89731e0", 8640},
		"nda-only-copy-stochastic": {"9b97c896fe73937142c3a0d4501f085a256feb9033f3851392c5ac976ed86183", 13088},
		"mixed-mix1-dot":           {"9d581ff26866ce2b80d54cec7517c5a26ea125c565bd5152077b4a45f5e08fe0", 620252},
		"mixed-mix3-copy-shared":   {"5be209b8de1a07337874bb7c56395af2f6bb3e33e2ace8cca4b7dbc83e685bea", 637830},
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
