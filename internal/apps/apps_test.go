package apps

import (
	"testing"

	"chopim/internal/ndart"
	"chopim/internal/sim"
)

func newSys(t *testing.T) *sim.System {
	t.Helper()
	s, err := sim.New(sim.Default(-1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCGIterationRuns(t *testing.T) {
	s := newSys(t)
	app, err := NewCG(s.RT, 256)
	if err != nil {
		t.Fatal(err)
	}
	h, err := app.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(50_000_000, h); err != nil {
		t.Fatal(err)
	}
	st := s.NDA.TotalStats()
	// GEMV dominates: at least the matrix (256x256 floats) is streamed.
	if min := int64(256 * 256 * 4 / 64); st.BlocksRead < min {
		t.Errorf("CG iteration read %d blocks, want >= %d", st.BlocksRead, min)
	}
	if st.BlocksWritten == 0 {
		t.Error("CG's AXPY updates wrote nothing")
	}
}

func TestStreamclusterRuns(t *testing.T) {
	s := newSys(t)
	app, err := NewStreamcluster(s.RT, 2048, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := app.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(50_000_000, h); err != nil {
		t.Fatal(err)
	}
	st := s.NDA.TotalStats()
	if st.BlocksRead == 0 {
		t.Error("SC read nothing")
	}
	// SC is read-dominant.
	if st.BlocksWritten >= st.BlocksRead {
		t.Errorf("SC wrote %d >= read %d; should be read-dominant", st.BlocksWritten, st.BlocksRead)
	}
}

func TestMicroOpsAllKinds(t *testing.T) {
	for _, op := range []string{"dot", "copy", "nrm2", "scal", "axpy", "xmy", "axpby", "axpbypcz"} {
		s := newSys(t)
		app, err := NewMicroPlaced(s.RT, op, 4096, ndart.Private)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		h, err := app.Iterate()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if err := s.Await(20_000_000, h); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if s.NDA.TotalStats().BlocksRead == 0 {
			t.Errorf("%s read nothing", op)
		}
	}
}

func TestMicroUnknownOp(t *testing.T) {
	s := newSys(t)
	if _, err := NewMicroPlaced(s.RT, "fft", 1024, ndart.Shared); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := MicroSpec(s.RT, "fft", 1024, ndart.Private); err == nil {
		t.Error("unknown spec accepted")
	}
}

func TestWriteIntensityOrdering(t *testing.T) {
	// COPY writes one block per block read; DOT writes none. The
	// micro-op traffic must reflect Table I semantics.
	ratios := map[string]float64{}
	for _, op := range []string{"dot", "copy"} {
		s := newSys(t)
		app, err := NewMicroPlaced(s.RT, op, 16384, ndart.Private)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := app.Iterate()
		if err := s.Await(20_000_000, h); err != nil {
			t.Fatal(err)
		}
		st := s.NDA.TotalStats()
		ratios[op] = float64(st.BlocksWritten) / float64(st.BlocksRead)
	}
	if ratios["dot"] != 0 {
		t.Errorf("DOT write ratio = %.2f, want 0", ratios["dot"])
	}
	if ratios["copy"] < 0.95 || ratios["copy"] > 1.05 {
		t.Errorf("COPY write ratio = %.2f, want ~1", ratios["copy"])
	}
}

func TestAverageGradientKernel(t *testing.T) {
	s := newSys(t)
	ag, err := NewAverageGradient(s.RT, AverageGradientConfig{N: 512, D: 256})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ag.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Await(100_000_000, h); err != nil {
		t.Fatal(err)
	}
	st := s.NDA.TotalStats()
	// X (512x256 floats = 8192 blocks) is streamed at least twice:
	// GEMV plus the macro AXPY loop.
	xBlocks := int64(512 * 256 * 4 / 64)
	if st.BlocksRead < 2*xBlocks {
		t.Errorf("average gradient read %d blocks, want >= %d (two X passes)", st.BlocksRead, 2*xBlocks)
	}
}
