package experiments

import (
	"fmt"

	"chopim/internal/apps"
	"chopim/internal/ndart"
	"chopim/internal/sim"
)

// AblationRow is one design-knob measurement.
type AblationRow struct {
	Study   string
	Setting string
	HostIPC float64
	NDAUtil float64
	Extra   string
}

// AblationLayout isolates the colored data layout (Section III-A):
// aligned operands run copy-free, while the naive layout forces
// host-mediated copies before every DOT — the cost Chopim's layout
// eliminates.
func AblationLayout(opt Options) ([]AblationRow, error) {
	const elems = 256 * 1024 // 1 MiB operands
	settings := []bool{true, false}
	return sharded(opt, len(settings), func(i int) (AblationRow, error) {
		aligned := settings[i]
		cfg := sim.Default(1)
		s, err := opt.newSystem(cfg)
		if err != nil {
			return AblationRow{}, err
		}
		mk := func() (*ndart.Vector, error) {
			if aligned {
				return s.RT.NewVector(elems, ndart.Shared)
			}
			return s.RT.NewVectorUncolored(elems)
		}
		x, err := s.RT.NewVector(elems, ndart.Shared)
		if err != nil {
			return AblationRow{}, err
		}
		y, err := mk()
		if err != nil {
			return AblationRow{}, err
		}
		it := func() (*ndart.Handle, error) { return s.RT.Dot(x, y) }
		res, err := measureConcurrent(s, it, opt)
		if err != nil {
			return AblationRow{}, err
		}
		name := "proposed (colored)"
		if !aligned {
			name = "naive (uncolored)"
		}
		return AblationRow{
			Study: "layout", Setting: name,
			HostIPC: res.HostIPC, NDAUtil: res.NDAUtil,
			Extra: fmt.Sprintf("host copies=%d", s.RT.Copies),
		}, nil
	})
}

// AblationReservedBanks sweeps the bank-partition size: more reserved
// banks give the NDAs row-buffer locality across banks at the cost of
// host capacity/parallelism.
func AblationReservedBanks(opt Options) ([]AblationRow, error) {
	counts := []int{1, 2, 4}
	return sharded(opt, len(counts), func(i int) (AblationRow, error) {
		rb := counts[i]
		cfg := sim.Default(1)
		cfg.ReservedBanks = rb
		s, err := opt.newSystem(cfg)
		if err != nil {
			return AblationRow{}, err
		}
		app, err := apps.NewMicroPlaced(s.RT, "dot", (512<<10)/4, ndart.Private)
		if err != nil {
			return AblationRow{}, err
		}
		res, err := measureConcurrent(s, app.Iterate, opt)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Study: "reserved-banks", Setting: fmt.Sprintf("%d banks/rank", rb),
			HostIPC: res.HostIPC, NDAUtil: res.NDAUtil,
		}, nil
	})
}

// AblationWriteBuffer sweeps the PE write-buffer capacity, which sets
// how long NDA writes can be deferred before a drain phase collides with
// host reads.
func AblationWriteBuffer(opt Options) ([]AblationRow, error) {
	caps := []int{16, 64, 128, 256}
	return sharded(opt, len(caps), func(i int) (AblationRow, error) {
		cfg := sim.Default(1)
		cfg.NDA.WriteBufCap = caps[i]
		s, err := opt.newSystem(cfg)
		if err != nil {
			return AblationRow{}, err
		}
		app, err := apps.NewMicroPlaced(s.RT, "copy", (512<<10)/4, ndart.Private)
		if err != nil {
			return AblationRow{}, err
		}
		res, err := measureConcurrent(s, app.Iterate, opt)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Study: "write-buffer", Setting: fmt.Sprintf("%d entries", caps[i]),
			HostIPC: res.HostIPC, NDAUtil: res.NDAUtil,
		}, nil
	})
}

// AblationLaunchModel toggles launch-packet modeling at fine
// granularity, quantifying how much of the fine-grain penalty is channel
// occupancy by control writes versus scheduling effects.
func AblationLaunchModel(opt Options) ([]AblationRow, error) {
	settings := []bool{true, false}
	return sharded(opt, len(settings), func(i int) (AblationRow, error) {
		model := settings[i]
		cfg := sim.Default(1)
		cfg.MaxBlocksPerInstr = 16
		cfg.ModelLaunches = model
		s, err := opt.newSystem(cfg)
		if err != nil {
			return AblationRow{}, err
		}
		app, err := apps.NewMicroPlaced(s.RT, "nrm2", (512<<10)/4, ndart.Private)
		if err != nil {
			return AblationRow{}, err
		}
		res, err := measureConcurrent(s, app.Iterate, opt)
		if err != nil {
			return AblationRow{}, err
		}
		setting := "launch packets modeled"
		if !model {
			setting = "free launches (idealized)"
		}
		return AblationRow{
			Study: "launch-model", Setting: setting,
			HostIPC: res.HostIPC, NDAUtil: res.NDAUtil,
			Extra: fmt.Sprintf("launches=%d", s.RT.Launches),
		}, nil
	})
}

// Ablations runs every ablation study.
func Ablations(opt Options) ([]AblationRow, error) { return figCached(opt, "ablate", ablationRows) }

func ablationRows(opt Options) ([]AblationRow, error) {
	var all []AblationRow
	for _, f := range []func(Options) ([]AblationRow, error){
		AblationLayout, AblationReservedBanks, AblationWriteBuffer, AblationLaunchModel,
	} {
		rows, err := f(opt)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}
