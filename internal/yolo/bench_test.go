package yolo

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/tensor"
)

// BenchmarkIm2Col measures the convolution lowering.
func BenchmarkIm2Col(b *testing.B) {
	in := SyntheticScene(96, 1)
	b.SetBytes(int64(in.Len() * 2))
	var sink []int16
	for i := 0; i < b.N; i++ {
		sink, _, _ = tensor.Im2ColInto(nil, in, 3, 1, 1)
	}
	_ = sink
}

// BenchmarkForwardHost measures the host reference forward pass on the
// tiny 75-conv network.
func BenchmarkForwardHost(b *testing.B) {
	n, err := New(tinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	in := SyntheticScene(32, 2)
	for i := 0; i < b.N; i++ {
		if _, _, err := n.Forward(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardDPU measures the DPU-delegated forward pass (tiled
// kernel) and reports modeled DPU time.
func BenchmarkForwardDPU(b *testing.B) {
	n, err := New(tinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	in := SyntheticScene(32, 2)
	sys, _ := host.NewSystem(4, host.DefaultConfig(dpu.O3))
	maxK, maxN := n.GEMMBounds()
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: maxK, MaxN: maxN, Tasklets: 11, TileCols: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	var sec float64
	for i := 0; i < b.N; i++ {
		_, st, err := n.Forward(in, r)
		if err != nil {
			b.Fatal(err)
		}
		sec = st.Seconds
	}
	b.ReportMetric(sec, "sim-seconds")
}

// BenchmarkEstimateFull measures the analytic full-size estimator.
func BenchmarkEstimateFull(b *testing.B) {
	n, err := New(FullConfig())
	if err != nil {
		b.Fatal(err)
	}
	ec := DefaultEstimateConfig()
	var total float64
	for i := 0; i < b.N; i++ {
		total, _, err = n.EstimateSeconds(ec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(total, "est-seconds")
}

// BenchmarkDecode measures the detection head decode + NMS on a dense
// tensor.
func BenchmarkDecode(b *testing.B) {
	cfg := Config{InputSize: 416, Classes: 80, WidthDiv: 1, Seed: 1}
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	t := NewTensor(cfg.headFilters(), 13, 13)
	for i := range t.Data {
		t.Data[i] = int16(i%128 - 64)
	}
	var sink []Detection
	for i := 0; i < b.N; i++ {
		sink = n.decodeScale(t, []int{6, 7, 8})
	}
	_ = sink
}
