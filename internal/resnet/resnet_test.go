package resnet

import (
	"testing"

	"pimdnn/internal/nn"
	"pimdnn/internal/tensor"
)

func TestFullShapes(t *testing.T) {
	n, err := New(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	// conv1: 224 -> 112; pool: -> 56; stages end at 56/28/14/7.
	if c, h, _ := n.Shape(0); c != 64 || h != 112 {
		t.Errorf("conv1 = %dx%d", c, h)
	}
	if _, h, _ := n.Shape(1); h != 56 {
		t.Errorf("pool = %d", h)
	}
	last := len(n.Defs) - 1
	if c, h, w := n.Shape(last); c != 1000 || h != 1 || w != 1 {
		t.Errorf("classifier = %dx%dx%d", c, h, w)
	}
	if c, _, _ := n.Shape(last - 1); c != 512 {
		t.Errorf("avgpool channels = %d", c)
	}
}

func TestStructure(t *testing.T) {
	ls, err := BuildLayers(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	var convs, blocks, projections int
	for _, l := range ls {
		switch l.Kind {
		case Conv:
			convs++
		case BlockStart:
			blocks++
			if l.Project {
				projections++
			}
		}
	}
	// ResNet-18: conv1 + 8 blocks x 2 convs = 17 convs, 8 blocks, 3
	// projected shortcuts (stages 2-4).
	if convs != 17 || blocks != 8 || projections != 3 {
		t.Errorf("convs=%d blocks=%d projections=%d, want 17/8/3", convs, blocks, projections)
	}
}

func TestMACsFull(t *testing.T) {
	n, err := New(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	macs := float64(n.MACs())
	// ResNet-18@224 is ~1.8 GMACs.
	if macs < 1.6e9 || macs > 2.0e9 {
		t.Errorf("ResNet-18 MACs = %.4g, want ~1.8e9", macs)
	}
	t.Logf("ResNet-18 MACs = %.4g", macs)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{InputSize: 100, Classes: 10, WidthDiv: 8}); err == nil {
		t.Error("non-multiple-of-32 accepted")
	}
	if _, err := New(Config{InputSize: 64, Classes: 0, WidthDiv: 8}); err == nil {
		t.Error("zero classes accepted")
	}
}

func TestForwardHostRuns(t *testing.T) {
	n, err := New(LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	logits, _, err := n.Forward(tensor.Random(64, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 10 {
		t.Fatalf("logits = %d", len(logits))
	}
	if p := nn.Argmax(logits); p < 0 || p >= 10 {
		t.Errorf("predict = %d", p)
	}
}

func TestForwardInputValidation(t *testing.T) {
	n, _ := New(LiteConfig())
	if _, _, err := n.Forward(tensor.New(3, 32, 32), nil); err == nil {
		t.Error("wrong size accepted")
	}
}

// TestResidualMatters: zeroing the residual path must change the output
// (the shortcuts are live, not dead code).
func TestResidualMatters(t *testing.T) {
	n, err := New(LiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(64, 3)
	want, _, err := n.Forward(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a copy whose blocks are plain sequences (no BlockEnd add):
	// simulate by zeroing projection weights and checking divergence is
	// not enough; instead compare against a net with different seed
	// shortcuts... simplest: perturb one projection weight and require
	// the logits to change.
	n.Weights[idxOfFirstProjection(n)].W[0] += 64
	got, _, err := n.Forward(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range want {
		if got[i] != want[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("perturbing the shortcut projection did not change the output")
	}
}

func idxOfFirstProjection(n *Network) int {
	for i, def := range n.Defs {
		if def.Kind == BlockStart && def.Project {
			return i
		}
	}
	return -1
}

func TestLayerKindString(t *testing.T) {
	kinds := []LayerKind{Conv, MaxPool, GlobalAvgPool, FC, BlockStart, BlockEnd}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}
