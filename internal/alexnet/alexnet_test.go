package alexnet

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/model"
	"pimdnn/internal/nn"
	"pimdnn/internal/tensor"
)

// TestFullShapes checks the canonical 227×227 pyramid.
func TestFullShapes(t *testing.T) {
	n, err := New(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		layer   int
		c, h, w int
	}{
		{0, 96, 55, 55},  // conv1
		{1, 96, 27, 27},  // pool1
		{2, 256, 27, 27}, // conv2
		{3, 256, 13, 13}, // pool2
		{4, 384, 13, 13}, // conv3
		{6, 256, 13, 13}, // conv5
		{7, 256, 6, 6},   // pool5
		{8, 4096, 1, 1},  // fc6
		{10, 1000, 1, 1}, // fc8
	}
	for _, ck := range checks {
		c, h, w := n.Shape(ck.layer)
		if c != ck.c || h != ck.h || w != ck.w {
			t.Errorf("layer %d = %dx%dx%d, want %dx%dx%d", ck.layer, c, h, w, ck.c, ck.h, ck.w)
		}
	}
}

// TestMACsMatchChapter5 cross-checks the implemented network against the
// thesis's Table 5.1 operation count: 2.59e9 total operations ≈ 2 ops per
// MAC of the ungrouped network (~1.14e9 MACs), within the slack of
// counting conventions.
func TestMACsMatchChapter5(t *testing.T) {
	n, err := New(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	macs := float64(n.MACs())
	if macs < 1.0e9 || macs > 1.3e9 {
		t.Errorf("AlexNet MACs = %.4g, want ~1.14e9 (ungrouped)", macs)
	}
	ratio := model.AlexNetTOPs / macs
	if ratio < 1.8 || ratio > 2.6 {
		t.Errorf("Table 5.1 TOPs / implemented MACs = %.2f, want ~2 (mult+add counted separately)", ratio)
	}
	t.Logf("implemented AlexNet: %.4g MACs; thesis TOPs 2.59e9 (ratio %.2f)", macs, ratio)
}

func TestGeometryValidation(t *testing.T) {
	// 63 collapses at pool5; 67 is the smallest closing size.
	if _, err := New(Config{InputSize: 63, Classes: 10, WidthDiv: 8, Seed: 1}); err == nil {
		t.Error("collapsing geometry accepted")
	}
	if _, err := New(Config{InputSize: 67, Classes: 10, WidthDiv: 8, Seed: 1}); err != nil {
		t.Errorf("67-pixel geometry rejected: %v", err)
	}
	if _, err := New(Config{InputSize: 0, Classes: 10, WidthDiv: 8}); err == nil {
		t.Error("zero input accepted")
	}
}

func TestForwardHostRuns(t *testing.T) {
	n, err := New(LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(n.Cfg.InputSize, 1)
	logits, _, err := n.Forward(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != n.Cfg.Classes {
		t.Fatalf("logits = %d, want %d", len(logits), n.Cfg.Classes)
	}
	if p := nn.Argmax(logits); p < 0 || p >= n.Cfg.Classes {
		t.Errorf("predict = %d", p)
	}
}

func TestForwardInputValidation(t *testing.T) {
	n, _ := New(LiteConfig())
	if _, _, err := n.Forward(tensor.New(3, 32, 32), nil); err == nil {
		t.Error("wrong size accepted")
	}
	if _, _, err := n.Forward(tensor.New(1, 67, 67), nil); err == nil {
		t.Error("wrong channels accepted")
	}
}

// TestFCWavesOnSmallSystem: an FC layer has M rows but N=1 columns, so
// the row-per-DPU mapping needs ceil(M/DPUs) waves — the mapping's worst
// case, which the thesis's dynamic DPU assignment exists to mitigate.
func TestFCWavesOnSmallSystem(t *testing.T) {
	n, err := New(LiteConfig()) // FC6 has 512 outputs at WidthDiv 8
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(n.Cfg.InputSize, 3)
	maxK, maxN, _ := n.GEMMBounds()
	sys, _ := host.NewSystem(4, host.DefaultConfig(dpu.O3))
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: maxK, MaxN: maxN, Tasklets: 4, TileCols: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := n.Forward(in, r)
	if err != nil {
		t.Fatal(err)
	}
	var fcStat *LayerStat
	for i := range stats.Layers {
		if n.Defs[stats.Layers[i].Layer].Kind == FC {
			fcStat = &stats.Layers[i]
			break
		}
	}
	if fcStat == nil {
		t.Fatal("no FC layer stat")
	}
	if fcStat.DPUsUsed != 4 {
		t.Errorf("FC used %d DPUs", fcStat.DPUsUsed)
	}
}

func TestMACsGrowWithWidth(t *testing.T) {
	narrow, err := New(Config{InputSize: 67, Classes: 10, WidthDiv: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(Config{InputSize: 67, Classes: 10, WidthDiv: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wide.MACs() <= narrow.MACs() {
		t.Errorf("wider network has fewer MACs: %d vs %d", wide.MACs(), narrow.MACs())
	}
}

func TestLayerKindString(t *testing.T) {
	if Conv.String() != "conv" || MaxPool.String() != "maxpool" || FC.String() != "fc" {
		t.Error("kind names")
	}
	if LayerKind(0).String() == "conv" {
		t.Error("zero kind")
	}
}
