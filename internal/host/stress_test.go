package host_test

import (
	"sync"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/exec"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

// TestConcurrentPipelinedRunners drives a pipelined GEMM runner and a
// pipelined eBNN runner against the SAME System from two goroutines.
// The command queue is the only serialization point between them: the
// runners use disjoint symbols, so every interleaving must produce the
// same results as running each alone. Run under -race (make ci does)
// this doubles as the data-race gate for the async engine.
func TestConcurrentPipelinedRunners(t *testing.T) {
	const nDPU = 4

	ds := mnist.Load(120, 32, 49)
	cfg := ebnn.DefaultTrainConfig()
	cfg.Epochs = 3
	model, err := ebnn.Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := host.NewSystem(nDPU, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const m, n, k = 9, 32, 16
	gr, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16, Exec: exec.Config{Pipeline: host.PipelineOn},
	})
	if err != nil {
		t.Fatal(err)
	}
	er, err := ebnn.NewRunner(sys, model, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	er.Configure(exec.Config{Pipeline: host.PipelineOn})

	a := make([]int16, m*k)
	b := make([]int16, k*n)
	for i := range a {
		a[i] = int16(i%11 - 5)
	}
	for i := range b {
		b[i] = int16(i%7 - 3)
	}
	want, err := gemm.Reference(m, n, k, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	lut := model.BuildLUT()
	images := ds.Test[:32]
	wantPreds := make([]int, len(images))
	for i := range images {
		wantPreds[i] = model.PredictFeatures(model.FeaturesViaLUT(&images[i], lut))
	}

	const rounds = 5
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			c, _, err := gr.Multiply(m, n, k, 1, a, b)
			if err != nil {
				t.Errorf("gemm round %d: %v", r, err)
				return
			}
			for i := range want {
				if c[i] != want[i] {
					t.Errorf("gemm round %d element %d: got %d want %d", r, i, c[i], want[i])
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			preds, _, err := er.Infer(images)
			if err != nil {
				t.Errorf("ebnn round %d: %v", r, err)
				return
			}
			for i := range wantPreds {
				if preds[i] != wantPreds[i] {
					t.Errorf("ebnn round %d image %d: got %d want %d", r, i, preds[i], wantPreds[i])
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := sys.Sync(); err != nil {
		t.Fatalf("queue poisoned after concurrent runs: %v", err)
	}
}
