package experiments

import "testing"

func TestAllFigsQuick(t *testing.T) {
	opt := QuickOptions()
	if _, err := Fig10(opt); err != nil {
		t.Error("fig10:", err)
	}
	if _, err := Fig11(opt); err != nil {
		t.Error("fig11:", err)
	}
	if _, err := Fig12(opt); err != nil {
		t.Error("fig12:", err)
	}
	if _, err := Fig13(opt); err != nil {
		t.Error("fig13:", err)
	}
	if _, err := Fig14(opt); err != nil {
		t.Error("fig14:", err)
	}
	if _, _, err := Fig15a(opt); err != nil {
		t.Error("fig15a:", err)
	}
	if _, err := Fig15b(opt); err != nil {
		t.Error("fig15b:", err)
	}
	if _, err := Power(opt); err != nil {
		t.Error("power:", err)
	}
}
