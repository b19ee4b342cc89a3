// Integration tests: whole-system flows crossing every package boundary,
// the checks a downstream adopter relies on.
package pimdnn_test

import (
	"testing"

	"pimdnn"
	"pimdnn/internal/alexnet"
	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/tensor"
	"pimdnn/internal/yolo"
)

// TestIntegrationEBNNAllPaths runs the same trained eBNN through every
// execution path — host float, host LUT, DPU float, DPU LUT, serialized
// round trip — and requires identical predictions everywhere.
func TestIntegrationEBNNAllPaths(t *testing.T) {
	ds := mnist.Load(300, 24, 61)
	m, err := ebnn.Train(ds, ebnn.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	lut := m.BuildLUT()

	// Reference: host float path.
	want := make([]int, len(ds.Test))
	for i := range ds.Test {
		want[i] = m.Predict(&ds.Test[i])
	}

	// Host LUT path.
	for i := range ds.Test {
		if got := m.PredictFeatures(m.FeaturesViaLUT(&ds.Test[i], lut)); got != want[i] {
			t.Fatalf("host LUT: image %d = %d, want %d", i, got, want[i])
		}
	}

	// DPU paths at two optimization levels.
	for _, opt := range []dpu.OptLevel{dpu.O0, dpu.O3} {
		for _, useLUT := range []bool{false, true} {
			sys, err := host.NewSystem(2, host.DefaultConfig(opt))
			if err != nil {
				t.Fatal(err)
			}
			r, err := ebnn.NewRunner(sys, m, useLUT, 16)
			if err != nil {
				t.Fatal(err)
			}
			preds, _, err := r.Infer(ds.Test)
			if err != nil {
				t.Fatal(err)
			}
			for i := range preds {
				if preds[i] != want[i] {
					t.Fatalf("DPU %v LUT=%v: image %d = %d, want %d",
						opt, useLUT, i, preds[i], want[i])
				}
			}
		}
	}

}

// TestIntegrationYOLOAllKernels runs one scene through the host
// reference, the tiled kernel, the naive kernel and the batch mapping,
// requiring bit-identical detection tensors.
func TestIntegrationYOLOAllKernels(t *testing.T) {
	cfg := yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 5}
	net, err := yolo.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := yolo.SyntheticScene(32, 77)
	want, _, err := net.Forward(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxK, maxN := net.GEMMBounds()

	check := func(name string, got *yolo.Result) {
		t.Helper()
		for s := range want.YoloOutputs {
			for i := range want.YoloOutputs[s].Data {
				if want.YoloOutputs[s].Data[i] != got.YoloOutputs[s].Data[i] {
					t.Fatalf("%s: scale %d element %d differs", name, s, i)
				}
			}
		}
	}

	for _, v := range []struct {
		name  string
		naive bool
	}{{"tiled", false}, {"naive", true}} {
		sys, _ := host.NewSystem(3, host.DefaultConfig(dpu.O3))
		r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
			MaxK: maxK, MaxN: maxN, Tasklets: 8, TileCols: 64, Naive: v.naive,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := net.Forward(img, r)
		if err != nil {
			t.Fatal(err)
		}
		check(v.name, res)
	}

	sys, _ := host.NewSystem(3, host.DefaultConfig(dpu.O3))
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: maxK, MaxN: maxN, Tasklets: 8, TileCols: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableBatch(net.MaxFilters()); err != nil {
		t.Fatal(err)
	}
	batch, _, err := net.ForwardBatch([]*yolo.Tensor{img}, r)
	if err != nil {
		t.Fatal(err)
	}
	check("batch", batch[0])
}

// TestIntegrationThreeWorkloadsOneSystem deploys eBNN, YOLOv3 and
// AlexNet onto a single accelerator and runs all three, confirming the
// symbol allocators and runners coexist.
func TestIntegrationThreeWorkloadsOneSystem(t *testing.T) {
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 4, Opt: pimdnn.O3})
	if err != nil {
		t.Fatal(err)
	}

	ds := mnist.Load(150, 8, 62)
	cfg := ebnn.DefaultTrainConfig()
	cfg.Epochs = 4
	m, err := ebnn.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ebnnRunner, err := acc.DeployEBNN(m, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ebnnRunner.Infer(ds.Test); err != nil {
		t.Fatal(err)
	}

	ynet, err := yolo.New(pimdnn.YOLOConfig{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	yoloRunner, err := acc.Deploy(ynet.Network, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ynet.Forward(yolo.SyntheticScene(32, 3), yoloRunner); err != nil {
		t.Fatal(err)
	}

	// AlexNet's GEMM symbols collide with YOLO's on the same system by
	// design (one workload per system in the SDK too); a fresh
	// accelerator hosts it.
	acc2, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 4, Opt: pimdnn.O3})
	if err != nil {
		t.Fatal(err)
	}
	anet, err := alexnet.New(alexnet.LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	alexRunner, err := acc2.Deploy(anet.Network, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := anet.Forward(tensor.Random(67, 1), alexRunner); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationProfileFlowsToAdvisor: profiles collected across a
// multi-workload run drive the advisor end to end.
func TestIntegrationProfileFlowsToAdvisor(t *testing.T) {
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 1, Opt: pimdnn.O0})
	if err != nil {
		t.Fatal(err)
	}
	ds := mnist.Load(100, 8, 63)
	cfg := ebnn.DefaultTrainConfig()
	cfg.Epochs = 3
	m, err := ebnn.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := acc.DeployEBNN(m, false /* float model */, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Infer(ds.Test); err != nil {
		t.Fatal(err)
	}
	recs := pimdnn.NewAdvisor().Analyze(pimdnn.RunInfo{
		Profile:  acc.System().Profile(),
		Tasklets: 4,
		Opt:      pimdnn.O0,
	})
	// Float model + 4 tasklets + O0 must trigger all three main rules.
	found := map[string]bool{}
	for _, r := range recs {
		found[r.Rule] = true
	}
	for _, rule := range []string{"remove-floating-point", "increase-tasklets", "enable-compiler-optimization"} {
		if !found[rule] {
			t.Errorf("rule %s not triggered: %+v", rule, recs)
		}
	}
}
