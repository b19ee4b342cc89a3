package core

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/tensor"
)

// calTolerance is the stated calibration tolerance: the analytic model
// mirrors the kernels charge by charge, so predicted latency must land
// within 1% of simulated for every layer (in practice it is exact).
const calTolerance = 0.01

func TestCalibrationReport(t *testing.T) {
	rep, err := Calibrate(CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxAbsError > calTolerance {
		t.Errorf("calibration max |error| %.4f exceeds tolerance %.2f", rep.MaxAbsError, calTolerance)
	}
	seen := map[string]int{}
	for _, r := range rep.Rows {
		seen[r.Network]++
		if r.Tasklets < 1 {
			t.Errorf("%s layer %d: tasklets %d", r.Network, r.Layer, r.Tasklets)
		}
		if r.PredictedSeconds <= 0 || r.SimulatedSeconds <= 0 {
			t.Errorf("%s layer %d: degenerate latencies pred=%g sim=%g",
				r.Network, r.Layer, r.PredictedSeconds, r.SimulatedSeconds)
		}
		if e := r.Error; e > calTolerance || e < -calTolerance {
			t.Errorf("%s layer %d: error %.4f outside +/-%.2f", r.Network, r.Layer, e, calTolerance)
		}
	}
	for _, net := range []string{"yolov3", "alexnet", "resnet18", "ebnn"} {
		if seen[net] == 0 {
			t.Errorf("calibration report has no %s rows", net)
		}
	}
	if seen["yolov3"] != 75 {
		t.Errorf("yolov3 rows = %d, want all 75 conv layers", seen["yolov3"])
	}
}

// TestAutoVsFixedBitIdentity is the planner's accept bar: on 64 DPUs,
// each graph's auto-mapped forward is bit-identical to the fixed one
// (CompareMappings refuses otherwise) and never slower in simulated
// time. eBNN's is the planned axis of ebnn.TestInferInvariance.
func TestAutoVsFixedBitIdentity(t *testing.T) {
	for i, nc := range liteNets(t, tinyYOLO) {
		t.Run(nc.name, func(t *testing.T) {
			c, err := CompareMappings(nc.g, tensor.Random(nc.size, int64(7+i)), 64, dpu.O0)
			if err != nil {
				t.Fatal(err)
			}
			if c.PlannedSeconds > c.FixedSeconds {
				t.Errorf("auto-mapped forward slower than hand-tuned: %.6gs vs %.6gs", c.PlannedSeconds, c.FixedSeconds)
			}
			t.Logf("fixed %.6gs (T=%d) -> planned %.6gs (T<=%d), speedup %.2fx",
				c.FixedSeconds, c.FixedTasklets, c.PlannedSeconds, c.PlannedTasklets, c.Speedup())
		})
	}
}
