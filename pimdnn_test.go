// Tests of the public facade: everything a downstream user touches.
package pimdnn_test

import (
	"testing"

	"pimdnn"
	"pimdnn/internal/yolo"
)

func TestFacadeEBNNPipeline(t *testing.T) {
	ds := pimdnn.LoadDigits(150, 20, 3)
	if len(ds.Train) != 150 || len(ds.Test) != 20 {
		t.Fatalf("dataset sizes %d/%d", len(ds.Train), len(ds.Test))
	}
	cfg := pimdnn.DefaultEBNNTrainConfig()
	cfg.Epochs = 5
	model, err := pimdnn.TrainEBNN(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 2, Opt: pimdnn.O3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := acc.DeployEBNN(model, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	preds, stats, err := r.Infer(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 20 || stats.Seconds <= 0 {
		t.Errorf("preds=%d stats=%+v", len(preds), stats)
	}
}

func TestFacadeYOLOPipeline(t *testing.T) {
	acc, err := pimdnn.NewAccelerator(pimdnn.Options{DPUs: 4, Opt: pimdnn.O3})
	if err != nil {
		t.Fatal(err)
	}
	net, err := yolo.New(pimdnn.YOLOConfig{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := acc.Deploy(net.Network, false)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := net.Forward(pimdnn.SyntheticScene(32, 1), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.YoloOutputs) != 3 || stats.Seconds <= 0 {
		t.Errorf("outputs=%d stats=%.4g", len(res.YoloOutputs), stats.Seconds)
	}
}

func TestFacadeScheme(t *testing.T) {
	if pimdnn.ChooseScheme(300, 16) != pimdnn.MultiImagePerDPU {
		t.Error("small working set should batch images per DPU")
	}
	if pimdnn.ChooseScheme(1<<20, 11) != pimdnn.MultiDPUPerImage {
		t.Error("large working set should spread across DPUs")
	}
}

func TestFacadeModelCatalog(t *testing.T) {
	archs := pimdnn.PIMArchitectures()
	if len(archs) != 3 {
		t.Fatalf("architectures = %d", len(archs))
	}
	devs := pimdnn.PIMDevices()
	if len(devs) != 7 {
		t.Fatalf("devices = %d", len(devs))
	}
}

func TestFacadeEstimate(t *testing.T) {
	naive, err := pimdnn.EstimateYOLOSeconds(pimdnn.YOLOFull(), true)
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := pimdnn.EstimateYOLOSeconds(pimdnn.YOLOFull(), false)
	if err != nil {
		t.Fatal(err)
	}
	if naive < 10 || naive > 200 {
		t.Errorf("naive estimate %.1f s, want the paper's order (65 s)", naive)
	}
	if tiled >= naive {
		t.Errorf("tiled kernel (%.1f s) should beat the thesis's kernel (%.1f s)", tiled, naive)
	}
	t.Logf("full YOLOv3: thesis-faithful %.1f s, WRAM-tiled improvement %.1f s", naive, tiled)
}

func TestFacadeAdvisor(t *testing.T) {
	recs := pimdnn.NewAdvisor().Analyze(pimdnn.RunInfo{Tasklets: 2, Opt: pimdnn.O0})
	if len(recs) < 2 {
		t.Errorf("advisor found %d issues with a 2-tasklet O0 run, want >= 2", len(recs))
	}
	if pimdnn.YOLOLite().InputSize%32 != 0 {
		t.Error("lite config has invalid input size")
	}
}
