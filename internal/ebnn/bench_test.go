package ebnn

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

func benchModel(b *testing.B) (*Model, []mnist.Image) {
	b.Helper()
	ds := mnist.Load(150, 16, 21)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m, err := Train(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, ds.Test
}

// BenchmarkHostInference measures the pure-host reference pipeline.
func BenchmarkHostInference(b *testing.B) {
	m, imgs := benchModel(b)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = m.Predict(&imgs[i%len(imgs)])
	}
	_ = sink
}

// BenchmarkDPUInferenceLUT measures a 16-image batch through the
// simulated DPU with the LUT architecture.
func BenchmarkDPUInferenceLUT(b *testing.B) {
	m, imgs := benchModel(b)
	sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O0))
	r, err := NewRunner(sys, m, true, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := r.Infer(imgs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "dpu-cycles")
	b.ReportMetric(float64(len(imgs)), "images")
}

// BenchmarkDPUInferenceFloat measures the same batch with the default
// (floating-point) architecture.
func BenchmarkDPUInferenceFloat(b *testing.B) {
	m, imgs := benchModel(b)
	sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O0))
	r, err := NewRunner(sys, m, false, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := r.Infer(imgs)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "dpu-cycles")
}

// BenchmarkTrain measures host-side training end to end.
func BenchmarkTrain(b *testing.B) {
	ds := mnist.Load(100, 10, 5)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildLUT measures Algorithm 1.
func BenchmarkBuildLUT(b *testing.B) {
	m, _ := benchModel(b)
	b.ResetTimer()
	var sink []byte
	for i := 0; i < b.N; i++ {
		sink = m.BuildLUT()
	}
	_ = sink
}

// BenchmarkConvPool measures the bit-packed binary convolution + pool.
func BenchmarkConvPool(b *testing.B) {
	m, imgs := benchModel(b)
	bits := imgs[0].Binarize()
	b.ResetTimer()
	var sink []int8
	for i := 0; i < b.N; i++ {
		sink = m.ConvPool(&bits)
	}
	_ = sink
}

// BenchmarkInferWaveSync / BenchmarkInferWavePipelined compare the
// synchronous wave loop against the double-buffered depth-2 path on 16
// waves of images across 4 DPUs — enough waves for the one in flight to
// overlap host-side packing and decoding with simulated device time. Simulated dpu-cycles are identical by construction.
func benchInferWave(b *testing.B, mode host.PipelineMode) {
	m, imgs := benchModel(b)
	// 4 DPUs x 16 images/DPU = 64 images per wave; 1024 images = 16 waves.
	many := make([]mnist.Image, 0, 1024)
	for len(many) < cap(many) {
		many = append(many, imgs[:min(len(imgs), cap(many)-len(many))]...)
	}
	sys, _ := host.NewSystem(4, host.DefaultConfig(dpu.O0))
	r, err := NewRunner(sys, m, true, 16)
	if err != nil {
		b.Fatal(err)
	}
	r.Configure(exec.Config{Pipeline: mode})
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := r.Infer(many)
		if err != nil {
			b.Fatal(err)
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(cycles), "dpu-cycles")
	b.ReportMetric(float64(len(many)), "images")
}

func BenchmarkInferWaveSync(b *testing.B)      { benchInferWave(b, host.PipelineOff) }
func BenchmarkInferWavePipelined(b *testing.B) { benchInferWave(b, host.PipelineOn) }

// BenchmarkEBNNStream is the ebnn_stream benchmark workload's shape as a
// profilable benchmark (`make profile-ebnn`): one iteration classifies
// 32 DPUs × 16 images × 4 waves through the LUT runner and through the
// float runner, 16 tasklets, O3, PipelineAuto.
func BenchmarkEBNNStream(b *testing.B) {
	const dpus, waves = 32, 4
	m, imgs := benchModel(b)
	many := make([]mnist.Image, dpus*BatchSize*waves)
	for i := range many {
		many[i] = imgs[i%len(imgs)]
	}
	var runners [2]*Runner
	for i, useLUT := range []bool{true, false} {
		sys, err := host.NewSystem(dpus, host.DefaultConfig(dpu.O3))
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		if runners[i], err = NewRunner(sys, m, useLUT, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runners {
			if _, _, err := r.Infer(many); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(2*len(many)), "images")
}
