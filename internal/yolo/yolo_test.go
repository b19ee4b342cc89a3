package yolo

import (
	"math"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/fixed"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/nn"
	"pimdnn/internal/tensor"
)

// tinyConfig is a full 75-conv graph small enough to simulate end to end.
func tinyConfig() Config {
	return Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3}
}

func TestBuildLayersStructure(t *testing.T) {
	ls, err := BuildLayers(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := CountConvLayers(ls); got != 75 {
		t.Errorf("conv layers = %d, want 75 (standard yolov3.cfg)", got)
	}
	if len(ls) != 107 {
		t.Errorf("total layers = %d, want 107", len(ls))
	}
	yolos := 0
	for _, l := range ls {
		if l.Kind == Yolo {
			yolos++
		}
	}
	if yolos != 3 {
		t.Errorf("yolo layers = %d, want 3", yolos)
	}
	// The three route-to-earlier links of the head.
	if ls[86].Kind != Route || len(ls[86].Layers) != 2 || ls[86].Layers[1] != 61 {
		t.Errorf("layer 86 = %+v, want route -1,61", ls[86])
	}
	if ls[98].Kind != Route || ls[98].Layers[1] != 36 {
		t.Errorf("layer 98 = %+v, want route -1,36", ls[98])
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{InputSize: 100, Classes: 1, WidthDiv: 1}, // not multiple of 32
		{InputSize: 0, Classes: 1, WidthDiv: 1},
		{InputSize: 416, Classes: 0, WidthDiv: 1},
		{InputSize: 416, Classes: 1, WidthDiv: 0},
	}
	for i, cfg := range bad {
		if _, err := BuildLayers(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFullNetworkShapes(t *testing.T) {
	n, err := New(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Detection tensors: 255 channels at 13, 26, 52.
	checks := []struct {
		layer   int
		c, h, w int
	}{
		{81, 255, 13, 13},
		{93, 255, 26, 26},
		{105, 255, 52, 52},
	}
	for _, ck := range checks {
		c, h, w := n.Shape(ck.layer)
		if c != ck.c || h != ck.h || w != ck.w {
			t.Errorf("layer %d shape = %dx%dx%d, want %dx%dx%d",
				ck.layer, c, h, w, ck.c, ck.h, ck.w)
		}
	}
}

func TestFullNetworkMACs(t *testing.T) {
	n, err := New(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	macs := n.MACs()
	// Standard YOLOv3@416 is ~65.9 GFLOPs = ~32.9 GMACs.
	if macs < 30e9 || macs > 36e9 {
		t.Errorf("full YOLOv3 MACs = %.3g, want ~32.9e9", float64(macs))
	}
	t.Logf("YOLOv3-416 MACs = %.4g", float64(macs))
}

func TestIm2ColShape(t *testing.T) {
	in := NewTensor(2, 6, 6)
	for i := range in.Data {
		in.Data[i] = int16(i)
	}
	b, k, n := tensor.Im2ColInto(nil, in, 3, 2, 1)
	if k != 18 || n != 9 {
		t.Fatalf("K=%d N=%d, want 18, 9", k, n)
	}
	if len(b) != k*n {
		t.Fatalf("B len %d", len(b))
	}
	// Center tap of channel 0 at output (1,1) is input (0, 2, 2) = 14.
	row := (0*3+1)*3 + 1
	if b[row*n+4] != in.At(0, 2, 2) {
		t.Errorf("center tap = %d, want %d", b[row*n+4], in.At(0, 2, 2))
	}
	// Top-left tap of output (0,0) reads padding (zero).
	if b[0*n+0] != 0 {
		t.Errorf("padded tap = %d, want 0", b[0])
	}
}

func TestQuantize(t *testing.T) {
	tests := []struct {
		give float64
		want int16
	}{
		{0, 0},
		{1, 32},
		{-1, -32},
		{0.5, 16},
		{1e9, 32767},
		{-1e9, -32768},
		{1.0 / 64, 1}, // rounds half away
	}
	for _, tt := range tests {
		if got := Quantize(tt.give); got != tt.want {
			t.Errorf("Quantize(%v) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestDecodeScaleHandcrafted(t *testing.T) {
	cfg := Config{InputSize: 416, Classes: 2, WidthDiv: 1, Seed: 1}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := 5 + cfg.Classes
	grid := 13
	tt := NewTensor(3*per, grid, grid)
	// Fill objectness with strongly negative values so nothing fires...
	for ai := 0; ai < 3; ai++ {
		for cy := 0; cy < grid; cy++ {
			for cx := 0; cx < grid; cx++ {
				tt.Set(ai*per+4, cy, cx, Quantize(-5))
			}
		}
	}
	// ...except anchor 1 (mask index 1 -> anchor 7) at cell (6, 3).
	tt.Set(1*per+4, 6, 3, Quantize(5))   // objectness
	tt.Set(1*per+5+1, 6, 3, Quantize(5)) // class 1
	tt.Set(1*per+0, 6, 3, 0)             // tx=0 -> bx=(0.5+3)*32
	tt.Set(1*per+1, 6, 3, 0)             // ty=0
	tt.Set(1*per+2, 6, 3, 0)             // tw=0 -> anchor width
	tt.Set(1*per+3, 6, 3, 0)

	dets := n.decodeScale(tt, []int{6, 7, 8})
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1", len(dets))
	}
	d := dets[0]
	if d.Class != 1 {
		t.Errorf("class = %d, want 1", d.Class)
	}
	if math.Abs(d.X-3.5*32) > 1e-9 || math.Abs(d.Y-6.5*32) > 1e-9 {
		t.Errorf("center = (%v, %v), want (112, 208)", d.X, d.Y)
	}
	if math.Abs(d.W-156) > 1e-9 || math.Abs(d.H-198) > 1e-9 {
		t.Errorf("size = (%v, %v), want anchor 7 = (156, 198)", d.W, d.H)
	}
	if d.Confidence < 0.9 {
		t.Errorf("confidence = %v", d.Confidence)
	}
}

func TestIoU(t *testing.T) {
	a := Detection{X: 10, Y: 10, W: 10, H: 10}
	if got := IoU(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self IoU = %v", got)
	}
	b := Detection{X: 30, Y: 30, W: 10, H: 10}
	if got := IoU(a, b); got != 0 {
		t.Errorf("disjoint IoU = %v", got)
	}
	// Half-overlapping: intersection 50, union 150.
	c := Detection{X: 15, Y: 10, W: 10, H: 10}
	if got := IoU(a, c); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("half IoU = %v, want 1/3", got)
	}
}

func TestNMS(t *testing.T) {
	dets := []Detection{
		{X: 10, Y: 10, W: 10, H: 10, Class: 0, Confidence: 0.9},
		{X: 11, Y: 10, W: 10, H: 10, Class: 0, Confidence: 0.8}, // suppressed
		{X: 11, Y: 10, W: 10, H: 10, Class: 1, Confidence: 0.7}, // different class: kept
		{X: 40, Y: 40, W: 10, H: 10, Class: 0, Confidence: 0.6}, // disjoint: kept
	}
	keep := NMS(dets, 0.45)
	if len(keep) != 3 {
		t.Fatalf("NMS kept %d, want 3: %+v", len(keep), keep)
	}
	if keep[0].Confidence != 0.9 {
		t.Errorf("NMS not sorted by confidence")
	}
}

func TestForwardHostRuns(t *testing.T) {
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := SyntheticScene(32, 7)
	res, _, err := n.Forward(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.YoloOutputs) != 3 {
		t.Fatalf("yolo outputs = %d", len(res.YoloOutputs))
	}
	// Grids at strides 32, 16, 8 of a 32-pixel input: 1, 2, 4.
	wantGrids := []int{1, 2, 4}
	for i, out := range res.YoloOutputs {
		if out.H != wantGrids[i] || out.W != wantGrids[i] {
			t.Errorf("scale %d grid = %dx%d, want %d", i, out.H, out.W, wantGrids[i])
		}
	}
}

func TestForwardInputValidation(t *testing.T) {
	n, _ := New(tinyConfig())
	if _, _, err := n.Forward(NewTensor(3, 64, 64), nil); err == nil {
		t.Error("wrong input size accepted")
	}
	if _, _, err := n.Forward(NewTensor(1, 32, 32), nil); err == nil {
		t.Error("wrong channel count accepted")
	}
}

// TestEstimateAgreesWithSimulation: the analytic estimator must track the
// simulated DPU time on a network small enough to run both ways.
func TestEstimateAgreesWithSimulation(t *testing.T) {
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := SyntheticScene(32, 9)
	const tasklets, tileCols = 8, 64
	sys, _ := host.NewSystem(4, host.DefaultConfig(dpu.O3))
	maxK, maxN := n.GEMMBounds()
	runner, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: maxK, MaxN: maxN, Tasklets: tasklets, TileCols: tileCols,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := n.Forward(in, runner)
	if err != nil {
		t.Fatal(err)
	}
	est, perLayer, err := n.EstimateSeconds(EstimateConfig{
		Opt: dpu.O3, Tasklets: tasklets, DPUs: 4, TileCols: tileCols,
		FrequencyHz: dpu.DefaultFrequencyHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perLayer) != 75 {
		t.Errorf("per-layer estimates = %d", len(perLayer))
	}
	ratio := est / stats.Seconds
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("estimate %.4gs vs simulated %.4gs (ratio %.2f)", est, stats.Seconds, ratio)
	}
	t.Logf("estimate %.4gs, simulated %.4gs, ratio %.2f", est, stats.Seconds, ratio)
}

// TestHeadlineLatencyOrder: the full 416×416 network on the full system
// lands in the same order of magnitude as the thesis's 65 s best case.
func TestHeadlineLatencyOrder(t *testing.T) {
	n, err := New(FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	total, perLayer, err := n.EstimateSeconds(DefaultEstimateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if total < 10 || total > 300 {
		t.Errorf("full YOLOv3 estimate = %.1fs; thesis best case is 65s, want same order", total)
	}
	var maxLayer float64
	for _, s := range perLayer {
		if s > maxLayer {
			maxLayer = s
		}
	}
	t.Logf("full YOLOv3: %.1fs total, %.2fs max layer (paper: 65s, ~6s max, ~0.9s avg)", total, maxLayer)
	if maxLayer > total/2 {
		t.Errorf("one layer dominates: %.1fs of %.1fs", maxLayer, total)
	}
}

func TestEstimateValidation(t *testing.T) {
	n, _ := New(tinyConfig())
	if _, _, err := n.EstimateSeconds(EstimateConfig{Tasklets: 0, DPUs: 1, TileCols: 64, FrequencyHz: 1}); err == nil {
		t.Error("0 tasklets accepted")
	}
	if _, _, err := n.EstimateSeconds(EstimateConfig{Tasklets: 1, DPUs: 0, TileCols: 64, FrequencyHz: 1}); err == nil {
		t.Error("0 DPUs accepted")
	}
}

func TestSyntheticSceneDeterministic(t *testing.T) {
	a := SyntheticScene(32, 42)
	b := SyntheticScene(32, 42)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("scene not deterministic")
		}
	}
	c := SyntheticScene(32, 43)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical scenes")
	}
}

func TestTensorAccessors(t *testing.T) {
	tt := NewTensor(2, 3, 4)
	tt.Set(1, 2, 3, -7)
	if tt.At(1, 2, 3) != -7 {
		t.Error("At/Set roundtrip failed")
	}
	if tt.Len() != 24 {
		t.Errorf("Len = %d", tt.Len())
	}
	cl := tt.Clone()
	cl.Set(0, 0, 0, 9)
	if tt.At(0, 0, 0) == 9 {
		t.Error("Clone aliases data")
	}
	d := tt.Dequantize()
	if d[tt.Len()-1] != -7.0/32 {
		t.Errorf("Dequantize = %v", d[tt.Len()-1])
	}
}

// convDirect is a naive convolution of layer li: the oracle for the
// im2col+GEMM lowering.
func convDirect(n *Network, li int, in *Tensor) *Tensor {
	def := n.Defs[li]
	c, h, w := n.Shape(li)
	out := NewTensor(c, h, w)
	wts := n.Weights[li]
	for f := 0; f < def.Filters; f++ {
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				var acc int32
				for ch := 0; ch < in.C; ch++ {
					for dy := 0; dy < def.Size; dy++ {
						for dx := 0; dx < def.Size; dx++ {
							iy := oy*def.Stride + dy - def.Pad
							ix := ox*def.Stride + dx - def.Pad
							if iy < 0 || iy >= in.H || ix < 0 || ix >= in.W {
								continue
							}
							wi := (ch*def.Size+dy)*def.Size + dx
							acc += int32(wts.W[f*(in.C*def.Size*def.Size)+wi]) * int32(in.At(ch, iy, ix))
						}
					}
				}
				v := fixed.GEMMOutputClamp(acc)
				v = fixed.SatAdd16(v, wts.Bias[f])
				if def.Act == Leaky && v < 0 {
					v = v >> 3
				}
				out.Set(f, oy, ox, v)
			}
		}
	}
	return out
}

// TestIm2ColMatchesDirectConv: the executor's im2col → GEMM → bias/
// activation lowering of the first two convolutions (stride 1 and
// stride 2) matches a direct convolution.
func TestIm2ColMatchesDirectConv(t *testing.T) {
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := SyntheticScene(32, 5)
	direct := in
	for layer := 0; layer < 2; layer++ {
		direct = convDirect(n, layer, direct)
		// The graph cut after this layer, carrying the full network's
		// weights.
		cut, err := nn.New(3, 32, 32, n.Defs[:layer+1], 0, "")
		if err != nil {
			t.Fatal(err)
		}
		copy(cut.Weights, n.Weights)
		out, _, err := cut.Forward(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		viaGEMM := out.Out
		if viaGEMM.C != direct.C || viaGEMM.H != direct.H || viaGEMM.W != direct.W {
			t.Fatalf("layer %d shape mismatch", layer)
		}
		for i := range direct.Data {
			if viaGEMM.Data[i] != direct.Data[i] {
				t.Fatalf("layer %d element %d: gemm %d, direct %d",
					layer, i, viaGEMM.Data[i], direct.Data[i])
			}
		}
	}
}

// TestWeightsScaleWithK: synthetic weights are drawn with std 1/sqrt(K),
// so a layer with a larger K has smaller weights.
func TestWeightsScaleWithK(t *testing.T) {
	n, err := New(Config{InputSize: 32, Classes: 1, WidthDiv: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	meanAbs := func(w []int16) float64 {
		var s float64
		for _, v := range w {
			s += math.Abs(float64(v))
		}
		return s / float64(len(w))
	}
	_, kSmall, _ := n.GEMMShape(0)
	_, kBig, _ := n.GEMMShape(1)
	if kSmall >= kBig {
		t.Fatalf("K %d vs %d: pick layers with growing K", kSmall, kBig)
	}
	if small, big := meanAbs(n.Weights[0].W), meanAbs(n.Weights[1].W); big >= small {
		t.Errorf("weight magnitude should shrink with K: %v vs %v", big, small)
	}
}
