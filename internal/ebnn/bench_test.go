package ebnn

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

// BenchmarkEBNNStream is the ebnn_stream benchmark workload's shape as a
// profilable benchmark (`make profile-ebnn`): one iteration classifies
// 32 DPUs × 16 images × 4 waves through the LUT runner and through the
// float runner, 16 tasklets, O3.
func BenchmarkEBNNStream(b *testing.B) {
	const dpus, waves = 32, 4
	ds := mnist.Load(150, 16, 21)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m, err := Train(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	many := make([]mnist.Image, dpus*BatchSize*waves)
	for i := range many {
		many[i] = ds.Test[i%len(ds.Test)]
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

// BenchmarkClassify is the host softmax layer alone on one 16-image shard
// of DPU results (BenchmarkEBNNStream's model and test digits): through
// classify, the class lanes where the host has them, and through
// classifyPacked, image by image.
func BenchmarkClassify(b *testing.B) {
	ds := mnist.Load(150, 16, 21)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m, err := Train(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := &Runner{model: m, byFeature: m.softmaxByFeature()}
	r.iws.preds = make([]int, BatchSize)
	r.iws.res = make([]byte, BatchSize*ResultSize)
	lut := m.BuildLUT()
	for i := range ds.Test[:BatchSize] {
		f := m.FeaturesViaLUT(&ds.Test[i], lut)
		for j, bit := range f {
			r.iws.res[i*ResultSize+j/m.F] |= bit << (j % m.F)
		}
	}
	for _, c := range []struct {
		name string
		fn   func(lo, hi int)
	}{{"classify", r.classify}, {"classifyPacked", r.classifyPacked}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fn(0, 1)
			}
		})
	}
}
