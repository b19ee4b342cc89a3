// The -plan report puts the cost-model-guided auto-mapper
// (internal/plan) side by side with the hand-tuned constants the
// networks shipped with. Every comparison runs both deployments on
// equal-sized fresh systems with the same input and refuses to print a
// row unless the outputs match bit for bit — the planner is only
// allowed to move latency, never results.
package main

import (
	"fmt"
	"math/rand"
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

func planInput(size int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(3, size, size)
	for i := range t.Data {
		t.Data[i] = tensor.Quantize(rng.Float64())
	}
	return t
}

func planReport() error {
	fmt.Println("\n## P1 — Auto-mapper vs hand-tuned mappings (bit-identical outputs enforced)")
	fmt.Println("\n| network | hand-tuned s | auto-mapped s | speedup | tasklets (fixed → planned) |")
	fmt.Println("|---|---|---|---|---|")

	const dpus = 64

	// YOLOv3-lite: the library comparison already verifies detections
	// match before reporting latencies.
	cmp, err := core.CompareYOLOMappings(
		yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3}, dpus, dpu.O3)
	if err != nil {
		return err
	}
	fmt.Printf("| YOLOv3-lite (75 conv) | %.4g | %.4g | %.2fx | %d → ≤%d |\n",
		cmp.FixedSeconds, cmp.PlannedSeconds, cmp.Speedup(),
		cmp.FixedTasklets, cmp.PlannedTasklets)

	// The same network on the full 2,560-DPU array, where the tuned
	// constant is 8 tasklets (TileCols 64) and per-shape re-planning
	// actually moves the total.
	fullNet, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		return err
	}
	fullInput := yolo.SyntheticScene(32, 99)
	runFull := func(planned bool) (*yolo.Result, *yolo.ForwardStats, error) {
		sys, root, err := newSystem(dpu.SystemDPUs, host.DefaultConfig(dpu.O3))
		if err != nil {
			return nil, nil, err
		}
		defer sys.Close()
		maxK, maxN := fullNet.GEMMBounds()
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
		return fullNet.Forward(fullInput, r)
	}
	fullFixedRes, fullFixedSt, err := runFull(false)
	if err != nil {
		return err
	}
	fullPlanRes, fullPlanSt, err := runFull(true)
	if err != nil {
		return err
	}
	if len(fullFixedRes.Detections) != len(fullPlanRes.Detections) {
		return fmt.Errorf("full-array auto-mapped forward diverged from fixed mapping")
	}
	for i := range fullFixedRes.Detections {
		if fullFixedRes.Detections[i] != fullPlanRes.Detections[i] {
			return fmt.Errorf("full-array auto-mapped detection %d diverged", i)
		}
	}
	fmt.Printf("| YOLOv3-lite, full array (%d DPUs) | %.4g | %.4g | %.2fx | 8 → ≤%d |\n",
		dpu.SystemDPUs, fullFixedSt.Seconds, fullPlanSt.Seconds,
		fullFixedSt.Seconds/fullPlanSt.Seconds, fullPlanSt.MaxTasklets())

	// AlexNet and ResNet-18: classify the same image under both
	// deployments and require identical logits.
	for _, c := range []struct {
		label    string
		classify func(*core.Accelerator, core.YOLOOptions) ([]int16, *nn.ForwardStats, error)
	}{
		{"AlexNet-lite", func(acc *core.Accelerator, opts core.YOLOOptions) ([]int16, *nn.ForwardStats, error) {
			app, err := acc.DeployAlexNet(alexnet.LiteConfig(), opts)
			if err != nil {
				return nil, nil, err
			}
			_, logits, st, err := app.Classify(planInput(app.Network().Cfg.InputSize, 31))
			return logits, st, err
		}},
		{"ResNet-18-lite", func(acc *core.Accelerator, opts core.YOLOOptions) ([]int16, *nn.ForwardStats, error) {
			app, err := acc.DeployResNet(resnet.LiteConfig(), opts)
			if err != nil {
				return nil, nil, err
			}
			_, logits, st, err := app.Classify(planInput(app.Network().Cfg.InputSize, 32))
			return logits, st, err
		}},
	} {
		var logits [2][]int16
		var st [2]*nn.ForwardStats
		for i, auto := range []bool{false, true} {
			acc, err := core.NewAccelerator(core.Options{DPUs: dpus, Opt: dpu.O3})
			if err != nil {
				return err
			}
			if logits[i], st[i], err = c.classify(acc, core.YOLOOptions{AutoMap: auto}); err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
		}
		if !slices.Equal(logits[0], logits[1]) {
			return fmt.Errorf("%s: auto-mapped logits diverged from fixed mapping", c.label)
		}
		fmt.Printf("| %s | %.4g | %.4g | %.2fx | %d → ≤%d |\n",
			c.label, st[0].Seconds, st[1].Seconds, st[0].Seconds/st[1].Seconds,
			st[0].MaxTasklets(), st[1].MaxTasklets())
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
		acc, err := core.NewAccelerator(core.Options{DPUs: 8})
		if err != nil {
			return nil, ebnn.BatchStats{}, err
		}
		app, err := acc.DeployEBNN(m, true, tasklets)
		if err != nil {
			return nil, ebnn.BatchStats{}, err
		}
		return app.Classify(images)
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
