package experiments

import (
	"testing"

	"chopim/internal/sim"
)

// TestFig2Quick exercises the Fig 2 harness end to end on a reduced
// budget and checks the motivating property: most idle time falls in
// short gaps for memory-intensive mixes.
func TestFig2Quick(t *testing.T) {
	opt := QuickOptions()
	rows, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		var sum float64
		for _, f := range r.Fractions {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: fractions sum to %.3f", r.Mix, sum)
		}
	}
}

// TestFig14RPHostMatchesStandalone: Fig 14 simulates the
// rank-partitioned host half once per rank count and shares it across
// workloads, so every row's RPHostIPC must equal a host-only system on
// half the ranks measured on its own under the same options.
func TestFig14RPHostMatchesStandalone(t *testing.T) {
	opt := QuickOptions()
	rows, err := Fig14(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{}
	for _, r := range rows {
		ipc, ok := want[r.Ranks]
		if !ok {
			cfg := sim.Default(1)
			cfg.Geom = geomWithRanks(r.Ranks / 2)
			s, err := opt.newSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := measureConcurrent(s, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			ipc = res.HostIPC
			want[r.Ranks] = ipc
		}
		if r.RPHostIPC != ipc {
			t.Errorf("%d ranks, %s: RPHostIPC %v, standalone host-only %v", r.Ranks, r.Workload, r.RPHostIPC, ipc)
		}
	}
}
