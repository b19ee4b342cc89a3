// Calibration closes the auto-mapper's loop: deploy each workload with
// the planner on, execute it through the simulator, and hold the
// planner's analytic prediction (plan.Mapping.PredictedSeconds) against
// the simulated latency (exec.Stats.Seconds) layer by layer. The
// planner evaluates the cost functions the kernels themselves charge
// (internal/model), so per-wave cycles agree by construction; what the
// report still checks is the wave arithmetic around them — the
// fault-free error must be 0 (cmd/upmem-profile -calibrate).
package core

import (
	"fmt"
	"math"
	"reflect"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/mnist"
	"pimdnn/internal/nn"
	"pimdnn/internal/plan"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

// CalibrationRow is one layer's predicted-vs-simulated comparison.
type CalibrationRow struct {
	Network  string `json:"network"`
	Layer    int    `json:"layer"`
	Tasklets int    `json:"tasklets"`
	DPUsUsed int    `json:"dpus_used"`
	// PredictedSeconds is the planner's analytic latency;
	// SimulatedSeconds is the interpreter's.
	PredictedSeconds float64 `json:"predicted_s"`
	SimulatedSeconds float64 `json:"simulated_s"`
	// Error is (predicted - simulated) / simulated.
	Error float64 `json:"error"`
}

// CalibrationReport aggregates the per-layer rows.
type CalibrationReport struct {
	Rows []CalibrationRow `json:"rows"`
	// MaxAbsError is the worst |Error| across all rows.
	MaxAbsError float64 `json:"max_abs_error"`
}

// CalibrateOptions sizes the calibration run. The workloads themselves
// are fixed reduced configurations of the four networks — large enough
// to exercise multi-wave mappings, small enough to simulate in seconds.
type CalibrateOptions struct {
	// DPUs is the system size (default 64).
	DPUs int
	// Opt is the compile optimization level (the zero value is O0,
	// matching dpu.OptLevel's).
	Opt dpu.OptLevel
}

func (r *CalibrationReport) add(network string, ls nn.LayerStat) {
	r.addRow(CalibrationRow{
		Network: network, Layer: ls.Layer,
		Tasklets: ls.Tasklets, DPUsUsed: ls.DPUsUsed,
		PredictedSeconds: ls.PredictedSeconds,
		SimulatedSeconds: ls.Seconds,
	})
}

func (r *CalibrationReport) addRow(row CalibrationRow) {
	if row.SimulatedSeconds > 0 {
		row.Error = (row.PredictedSeconds - row.SimulatedSeconds) / row.SimulatedSeconds
	}
	if e := math.Abs(row.Error); e > r.MaxAbsError {
		r.MaxAbsError = e
	}
	r.Rows = append(r.Rows, row)
}

// Calibrate runs all four workloads — YOLOv3 (row-per-DPU), AlexNet and
// ResNet-18 (same scheme), eBNN (multi-image-per-DPU) — with the
// auto-mapper choosing every mapping, and reports predicted vs
// simulated latency for every delegated layer.
func Calibrate(opts CalibrateOptions) (*CalibrationReport, error) {
	if opts.DPUs == 0 {
		opts.DPUs = 64
	}
	rep := &CalibrationReport{}

	newAcc := func() (*Accelerator, error) {
		return NewAccelerator(Options{DPUs: opts.DPUs, Opt: opts.Opt})
	}

	// The three GEMM-backed networks, all through the same row-per-DPU
	// runner: YOLOv3's 75-conv graph at bench scale, AlexNet (conv + FC
	// layers) and ResNet-18 (residual blocks, projections included).
	ynet, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		return nil, err
	}
	anet, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		return nil, err
	}
	rnet, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		return nil, err
	}
	for i, w := range []struct {
		name string
		g    *nn.Network
		size int
	}{
		{"yolov3", ynet.Network, ynet.Cfg.InputSize},
		{"alexnet", anet.Network, anet.Cfg.InputSize},
		{"resnet18", rnet.Network, rnet.Cfg.InputSize},
	} {
		acc, err := newAcc()
		if err != nil {
			return nil, err
		}
		r, err := acc.Deploy(w.g, true)
		if err != nil {
			return nil, err
		}
		_, st, err := w.g.Forward(tensor.Random(w.size, int64(i+1)), r)
		if err != nil {
			return nil, fmt.Errorf("core: calibrate %s: %w", w.name, err)
		}
		for _, ls := range st.Layers {
			rep.add(w.name, ls)
		}
	}

	// eBNN: the multi-image-per-DPU scheme, planned for the exact image
	// count so the partial-wave geometry is part of what's validated.
	{
		acc, err := newAcc()
		if err != nil {
			return nil, err
		}
		ds := mnist.Load(160, 16, 41)
		tc := ebnn.DefaultTrainConfig()
		tc.Epochs = 2
		m, err := ebnn.Train(ds, tc)
		if err != nil {
			return nil, err
		}
		images := ds.Train[:96]
		p := plan.New(acc.System())
		mp := ebnn.PlanMapping(p, m, true, len(images))
		r, err := ebnn.NewRunner(acc.System(), m, true, mp.Tasklets)
		if err != nil {
			return nil, err
		}
		_, st, err := r.Infer(images)
		if err != nil {
			return nil, fmt.Errorf("core: calibrate ebnn: %w", err)
		}
		rep.addRow(CalibrationRow{
			Network: "ebnn", Layer: 0,
			Tasklets: st.Tasklets, DPUsUsed: st.DPUsUsed,
			PredictedSeconds: mp.PredictedSeconds,
			SimulatedSeconds: st.Seconds,
		})
	}
	return rep, nil
}

// MappingComparison contrasts one network's forward pass under the
// hand-tuned fixed mapping against the auto-mapped deployment on
// identical systems and input. Outputs are verified bit-identical
// before the stats are reported.
type MappingComparison struct {
	// FixedSeconds and PlannedSeconds are simulated DPU latencies.
	FixedSeconds   float64 `json:"fixed_s"`
	PlannedSeconds float64 `json:"planned_s"`
	// FixedTasklets is the constant the fixed path ran with;
	// PlannedTasklets the planner's choice on the largest layer.
	FixedTasklets   int `json:"fixed_tasklets"`
	PlannedTasklets int `json:"planned_tasklets"`
}

// Speedup is fixed over planned latency (>= 1 when the planner wins).
func (c MappingComparison) Speedup() float64 {
	if c.PlannedSeconds == 0 {
		return 0
	}
	return c.FixedSeconds / c.PlannedSeconds
}

// CompareMappings runs g's forward pass on in twice — Deploy's fixed
// constants, then its auto-mapper — on equal-sized fresh systems of dpus
// DPUs at opt, requires the output and every head to match bit for bit,
// and returns both latencies.
func CompareMappings(g *nn.Network, in *tensor.Tensor, dpus int, opt dpu.OptLevel) (MappingComparison, error) {
	var out [2]nn.Output
	var st [2]*nn.ForwardStats
	for i, auto := range []bool{false, true} {
		acc, err := NewAccelerator(Options{DPUs: dpus, Opt: opt})
		if err != nil {
			return MappingComparison{}, err
		}
		r, err := acc.Deploy(g, auto)
		if err != nil {
			return MappingComparison{}, err
		}
		if out[i], st[i], err = g.Forward(in, r); err != nil {
			return MappingComparison{}, err
		}
	}
	if !reflect.DeepEqual(out[0], out[1]) {
		return MappingComparison{}, fmt.Errorf("core: auto-mapped forward diverged from the fixed mapping")
	}
	return MappingComparison{
		FixedSeconds:    st[0].Seconds,
		PlannedSeconds:  st[1].Seconds,
		FixedTasklets:   st[0].MaxTasklets(),
		PlannedTasklets: st[1].MaxTasklets(),
	}, nil
}
