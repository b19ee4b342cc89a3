// The -plan report puts the cost-model-guided auto-mapper
// (internal/plan) side by side with the hand-tuned constants the
// networks shipped with. Every comparison runs both deployments on
// equal-sized fresh systems with the same input and refuses to print a
// row unless the outputs match bit for bit — the planner is only
// allowed to move latency, never results.
package main

import (
	"fmt"
	"slices"

	"pimdnn/internal/alexnet"
	"pimdnn/internal/core"
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/nn"
	"pimdnn/internal/plan"
	"pimdnn/internal/resnet"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

func planReport() error {
	fmt.Println("\n## P1 — Auto-mapper vs hand-tuned mappings (bit-identical outputs enforced)")
	fmt.Println("\n| network | hand-tuned s | auto-mapped s | speedup | tasklets (fixed → planned) |")
	fmt.Println("|---|---|---|---|---|")

	const dpus = 64
	ynet, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		return err
	}
	anet, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		return err
	}
	rnet, err := resnet.New(resnet.LiteConfig())
	if err != nil {
		return err
	}
	lite := func(g *nn.Network, in *tensor.Tensor) func() (core.MappingComparison, error) {
		return func() (core.MappingComparison, error) { return core.CompareMappings(g, in, dpus, dpu.O3) }
	}
	// The lite rows deploy each network both ways through core; the
	// full-array row runs YOLOv3-lite on all 2,560 DPUs, where the tuned
	// constant is 8 tasklets (TileCols 64) and per-shape re-planning
	// actually moves the total.
	for _, row := range []struct {
		label   string
		compare func() (core.MappingComparison, error)
	}{
		{"YOLOv3-lite (75 conv)", lite(ynet.Network, tensor.Random(32, 7))},
		{fmt.Sprintf("YOLOv3-lite, full array (%d DPUs)", dpu.SystemDPUs), func() (core.MappingComparison, error) {
			return fullArrayComparison(ynet)
		}},
		{"AlexNet-lite", lite(anet.Network, tensor.Random(anet.Cfg.InputSize, 31))},
		{"ResNet-18-lite", lite(rnet.Network, tensor.Random(rnet.Cfg.InputSize, 32))},
	} {
		c, err := row.compare()
		if err != nil {
			return fmt.Errorf("%s: %w", row.label, err)
		}
		fmt.Printf("| %s | %.4g | %.4g | %.2fx | %d → ≤%d |\n", row.label,
			c.FixedSeconds, c.PlannedSeconds, c.Speedup(), c.FixedTasklets, c.PlannedTasklets)
	}

	// eBNN: the multi-image-per-DPU mapping. tasklets=0 deploys through
	// the planner.
	ds := mnist.Load(160, 16, 41)
	tc := ebnn.DefaultTrainConfig()
	tc.Epochs = 2
	m, err := ebnn.Train(ds, tc)
	if err != nil {
		return err
	}
	images := ds.Train[:96]
	runEBNN := func(tasklets int) ([]int, ebnn.BatchStats, error) {
		acc, err := core.NewAccelerator(core.Options{DPUs: 8, Opt: dpu.O0})
		if err != nil {
			return nil, ebnn.BatchStats{}, err
		}
		r, err := acc.DeployEBNN(m, true, tasklets)
		if err != nil {
			return nil, ebnn.BatchStats{}, err
		}
		return r.Infer(images)
	}
	fixedPreds, fixedSt, err := runEBNN(plan.FixedEBNNTasklets)
	if err != nil {
		return err
	}
	autoPreds, autoSt, err := runEBNN(0)
	if err != nil {
		return err
	}
	for i := range fixedPreds {
		if fixedPreds[i] != autoPreds[i] {
			return fmt.Errorf("ebnn: auto-mapped prediction %d diverged", i)
		}
	}
	fmt.Printf("| eBNN (%d images) | %.4g | %.4g | %.2fx | %d → %d |\n",
		len(images), fixedSt.Seconds, autoSt.Seconds, fixedSt.Seconds/autoSt.Seconds,
		fixedSt.Tasklets, autoSt.Tasklets)

	fmt.Println("\nThe planner sweeps tasklet count, tile geometry and DPU shard count")
	fmt.Println("through the internal/model cost functions per layer shape; small head")
	fmt.Println("layers whose single tile lands on tasklet 0 anyway drop to one tasklet")
	fmt.Println("(the extra tasklets only replicate per-tasklet setup), while multi-tile")
	fmt.Println("layers fan out to one tasklet per tile up to the WRAM cap.")

	// Close with the calibration headline: the same loop that
	// `upmem-profile -calibrate` prints per layer.
	rep, err := core.Calibrate(core.CalibrateOptions{DPUs: dpus, Opt: dpu.O3})
	if err != nil {
		return err
	}
	fmt.Printf("\nCalibration across all four networks (`upmem-profile -calibrate`): %d layers, planner prediction max |error| %.4f%%.\n",
		len(rep.Rows), rep.MaxAbsError*100)
	return nil
}

// fullArrayComparison runs net on the full array with the runner this
// row has always used (its own config, traced under the report's root
// span): 8 tasklets fixed against the planner, both at TileCols 64.
func fullArrayComparison(net *yolo.Network) (core.MappingComparison, error) {
	input := yolo.SyntheticScene(32, 99)
	run := func(planned bool) (*yolo.Result, *yolo.ForwardStats, error) {
		sys, root, err := newSystem(dpu.SystemDPUs, host.DefaultConfig(dpu.O3))
		if err != nil {
			return nil, nil, err
		}
		defer sys.Close()
		maxK, maxN := net.GEMMBounds()
		cfg := gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, TileCols: 64}
		if planned {
			cfg.Planner = plan.New(sys)
		} else {
			cfg.Tasklets = 8 // the hand-tuned full-array constant
		}
		r, err := gemm.NewRunner(sys, cfg)
		if err != nil {
			return nil, nil, err
		}
		r.SetTraceSpan(root)
		return net.Forward(input, r)
	}
	fixedRes, fixedSt, err := run(false)
	if err != nil {
		return core.MappingComparison{}, err
	}
	planRes, planSt, err := run(true)
	if err != nil {
		return core.MappingComparison{}, err
	}
	if !slices.Equal(fixedRes.Detections, planRes.Detections) {
		return core.MappingComparison{}, fmt.Errorf("auto-mapped detections diverged from fixed mapping")
	}
	return core.MappingComparison{
		FixedSeconds: fixedSt.Seconds, PlannedSeconds: planSt.Seconds,
		FixedTasklets: fixedSt.MaxTasklets(), PlannedTasklets: planSt.MaxTasklets(),
	}, nil
}
