package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestAllFigsQuick computes every quick figure and pins the Fig 2,
// Figs 10-14 and power tables, each as one SHA-256 of its rows' JSON (which
// carries every float64 exactly), so a refactor of the figure code
// must reproduce every row bit for bit. Fig 15 has its own pins
// (TestFig15QuickPinned); here it only has to run.
func TestAllFigsQuick(t *testing.T) {
	opt := QuickOptions()
	pinned := []struct {
		name, want string
		rows       func() (any, error)
	}{
		{"fig2", "1efa9f925765a50ab079245702f49e7023c5f91bfca038b552eafb4c596c037b", func() (any, error) { return Fig2(opt) }},
		{"fig10", "09a7c8c7031a0cc59ba8c7f2505efd6e40742dc2c2cac4c0cc97b3c4c1f60b40", func() (any, error) { return Fig10(opt) }},
		{"fig11", "57f99918ed50bf5e827c0dfbf302430d05bfcb2446812e7c75fc2932bff1ac23", func() (any, error) { return Fig11(opt) }},
		{"fig12", "39e4cadb369ef5b060c132a143f18f2be599c650f0e2446a48eaa574318942d0", func() (any, error) { return Fig12(opt) }},
		{"fig13", "cd0311342063c21887cbe848813b529f318edda028e5a276dcabeda8012208a0", func() (any, error) { return Fig13(opt) }},
		{"fig14", "61881785b2ffc88bc26d010a3562b34e2b6b6e61df265e61040439e0679ca702", func() (any, error) { return Fig14(opt) }},
		{"power", "4681cbdd9fe42d52ef386219f2b699eedee2c2312d3bb73578da2bfd83a55db4", func() (any, error) { return Power(opt) }},
	}
	for _, p := range pinned {
		rows, err := p.rows()
		if err != nil {
			t.Errorf("%s: %v", p.name, err)
			continue
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Errorf("%s: %v", p.name, err)
			continue
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != p.want {
			t.Errorf("quick %s rows hash %s, pinned %s; re-pin only for an intended behaviour change recorded in CHANGES.md", p.name, got, p.want)
		}
	}
	if _, _, err := Fig15a(opt); err != nil {
		t.Error("fig15a:", err)
	}
	if _, err := Fig15b(opt); err != nil {
		t.Error("fig15b:", err)
	}
}
