package gemm_test

import (
	"reflect"
	"testing"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/nn"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

// netRow is one network of TestForwardBlockChargingParity: the runner
// bounds and system size it runs on, and a forward pass returning its
// output tensors and (for the detector) its decoded boxes.
type netRow struct {
	name       string
	dpus       int
	maxK, maxN int
	forward    func(r *gemm.Runner) ([][]int16, []yolo.Detection, *nn.ForwardStats, error)
}

func netRows(t *testing.T) []netRow {
	t.Helper()
	// A full 75-conv graph small enough to simulate end to end.
	yn, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	an, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	rn, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	scene := yolo.SyntheticScene(32, 9)
	aIn, rIn := tensor.Random(an.Cfg.InputSize, 2), tensor.Random(64, 2)
	logits := func(out []int16, st *nn.ForwardStats, err error) ([][]int16, []yolo.Detection, *nn.ForwardStats, error) {
		return [][]int16{out}, nil, st, err
	}

	yK, yN := yn.GEMMBounds()
	aK, aN, _ := an.GEMMBounds()
	rK, rN := rn.GEMMBounds()
	return []netRow{
		{"yolo", 4, yK, yN, func(r *gemm.Runner) ([][]int16, []yolo.Detection, *nn.ForwardStats, error) {
			res, st, err := yn.Forward(scene, r)
			if err != nil {
				return nil, nil, nil, err
			}
			outs := make([][]int16, len(res.YoloOutputs))
			for s, o := range res.YoloOutputs {
				outs[s] = o.Data
			}
			return outs, res.Detections, st, nil
		}},
		{"alexnet", 8, aK, aN, func(r *gemm.Runner) ([][]int16, []yolo.Detection, *nn.ForwardStats, error) {
			return logits(an.Forward(aIn, r))
		}},
		{"resnet", 4, rK, rN, func(r *gemm.Runner) ([][]int16, []yolo.Detection, *nn.ForwardStats, error) {
			return logits(rn.Forward(rIn, r))
		}},
	}
}

// TestForwardBlockChargingParity: a full forward pass of each network —
// 75 convolutions, AlexNet's 8 delegated GEMMs, ResNet's 21 — must be
// observationally identical between the legacy per-operation kernels and
// the block-charged kernels the runner ships: same tensors, detections,
// per-layer cycle stats, per-DPU clocks, and subroutine profiles.
func TestForwardBlockChargingParity(t *testing.T) {
	for _, row := range netRows(t) {
		t.Run(row.name, func(t *testing.T) {
			type side struct {
				outs  [][]int16
				dets  []yolo.Detection
				stats *nn.ForwardStats
				cyc   []uint64
				prof  map[string]uint64
			}
			run := func(legacy bool) side {
				sys, err := host.NewSystem(row.dpus, host.DefaultConfig(dpu.O3))
				if err != nil {
					t.Fatal(err)
				}
				r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
					MaxK: row.maxK, MaxN: row.maxN, Tasklets: 8, TileCols: 64,
				})
				if err != nil {
					t.Fatal(err)
				}
				if legacy {
					gemm.InstallLegacy(r)
				}
				outs, dets, stats, err := row.forward(r)
				if err != nil {
					t.Fatal(err)
				}
				cyc := make([]uint64, sys.NumDPUs())
				for i := range cyc {
					cyc[i] = sys.DPU(i).TotalCycles()
				}
				return side{outs, dets, stats, cyc, sys.Profile().Snapshot()}
			}

			leg, blk := run(true), run(false)

			for s := range leg.outs {
				if !reflect.DeepEqual(leg.outs[s], blk.outs[s]) {
					t.Errorf("output %d diverges between legacy and block charging", s)
				}
			}
			if !reflect.DeepEqual(leg.dets, blk.dets) {
				t.Error("detections diverge between legacy and block charging")
			}
			if !reflect.DeepEqual(leg.stats, blk.stats) {
				t.Errorf("forward stats diverge:\nlegacy: %+v\nblock:  %+v", leg.stats, blk.stats)
			}
			if !reflect.DeepEqual(leg.cyc, blk.cyc) {
				t.Errorf("per-DPU cycles diverge:\nlegacy: %v\nblock:  %v", leg.cyc, blk.cyc)
			}
			if !reflect.DeepEqual(leg.prof, blk.prof) {
				t.Errorf("subroutine profiles diverge:\nlegacy: %v\nblock:  %v", leg.prof, blk.prof)
			}
		})
	}
}
