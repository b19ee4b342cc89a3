package ebnn

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

// Infer at depth 2 (double-buffered, one wave in flight) must match depth
// 1 in everything observable except wall-clock: identical predictions
// in identical order, identical simulated-time statistics and identical
// transfer accounting (operations, bytes, time), including when the
// image count forces partial waves and unevenly filled DPUs.
func TestInferPipelinedMatchesSync(t *testing.T) {
	ds := mnist.Load(180, 64, 47)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 4
	m, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(mode host.PipelineMode, images []mnist.Image) ([]int, BatchStats, host.XferStats) {
		sys, err := host.NewSystem(4, host.DefaultConfig(dpu.O0))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		r, err := NewRunner(sys, m, true, 16)
		if err != nil {
			t.Fatal(err)
		}
		r.Configure(exec.Config{Pipeline: mode})
		preds, st, err := r.Infer(images)
		if err != nil {
			t.Fatal(err)
		}
		return preds, st, sys.TransferStats()
	}

	// 64 test images on 4 DPUs at batch size 16: one full wave. 150
	// images: two full waves plus a ragged 22-image wave where DPU 1
	// holds fewer images than DPU 0 and DPUs 2-3 are idle. 1,000 images:
	// fifteen full waves and a 40-image one (16, 16 and 8 on three DPUs).
	for _, n := range []int{64, 150, 1000} {
		images := ds.Test[:0:0]
		for len(images) < n {
			images = append(images, ds.Test[:min(n-len(images), len(ds.Test))]...)
		}
		pSync, stSync, xSync := run(host.PipelineOff, images)
		pPipe, stPipe, xPipe := run(host.PipelineOn, images)
		if len(pSync) != len(pPipe) {
			t.Fatalf("n=%d: sync returned %d predictions, pipelined %d", n, len(pSync), len(pPipe))
		}
		for i := range pSync {
			if pSync[i] != pPipe[i] {
				t.Errorf("n=%d image %d: sync predicted %d, pipelined %d", n, i, pSync[i], pPipe[i])
			}
		}
		if stSync != stPipe {
			t.Errorf("n=%d: stats diverge: sync %+v, pipelined %+v", n, stSync, stPipe)
		}
		if xSync != xPipe {
			t.Errorf("n=%d: transfer accounting diverges: sync %+v, pipelined %+v", n, xSync, xPipe)
		}
	}
}

// A pipelined runner must stay correct across successive Infer calls of
// different sizes on the same system: leftover slot state from a larger
// earlier call must not leak into a smaller later one.
func TestInferPipelinedRepeatedCalls(t *testing.T) {
	ds := mnist.Load(150, 32, 48)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r, err := NewRunner(sys, m, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.Configure(exec.Config{Pipeline: host.PipelineOn})
	lut := m.BuildLUT()
	for _, n := range []int{32, 7, 20} {
		preds, _, err := r.Infer(ds.Test[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			want := m.PredictFeatures(m.FeaturesViaLUT(&ds.Test[i], lut))
			if preds[i] != want {
				t.Errorf("n=%d image %d: DPU %d, host %d", n, i, preds[i], want)
			}
		}
	}
}
