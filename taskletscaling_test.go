// Regression guard for host wall-clock growing with the tasklet count.
// A block kernel is one functional pass per DPU and one launch-wide
// charge, both run by tasklet 0, so the only per-tasklet host work left
// in a launch is the DPU's own bookkeeping (charging, merging and
// zeroing a tasklet's meters): modelled cycles fall as
// tasklets are added and host time must not rise with them. Measured on
// 2 cores (go1.24), fastest single forward relative to 1 tasklet —
// Forward (row kernel, 472 launches of one C row each, the worst case
// for per-launch overhead): 8 → 1.07×, 16 → 1.10×, 24 → 1.15×;
// ForwardBatch (batch kernel, 75 launches): 8 → 1.03×, 16 → 1.05×,
// 24 → 1.06×. The tasklet-strided tile walk this replaced measured
// 1.11×, 1.21×, 1.31× and 1.12×, 1.21×, 1.31×. The bounds sit between
// the two: headroom for timer noise, none for an O(tasklets) functional
// cost per launch. The eBNN row holds its block kernel to the same
// reading: tasklet 0 resolves its activation tables (the float model's,
// ten softfloat compares per filter, is the costliest) and charges the
// launch from the runner's shape-keyed cost cache, once per launch, never
// once per tasklet — 8 → 1.01×, 16 → 1.01×, 24 → 1.01× against 1.08×,
// 1.20×, 1.21× when every tasklet ran model.EBNNCost into itself.
package pimdnn_test

import (
	"fmt"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/ebnn"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
	"pimdnn/internal/yolo"
)

func TestTaskletScalingHostOverheadFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	net, err := yolo.New(yolo.Config{InputSize: 32, Classes: 1, WidthDiv: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	img := yolo.SyntheticScene(32, 5)
	imgs := []*yolo.Tensor{img, yolo.SyntheticScene(32, 6)}
	maxK, maxN := net.GEMMBounds()

	ds := mnist.Load(60, 2*ebnn.BatchSize, 9)
	ecfg := ebnn.DefaultTrainConfig()
	ecfg.Epochs = 2
	em, err := ebnn.Train(ds, ecfg)
	if err != nil {
		t.Fatal(err)
	}

	counts := []int{1, 8, 16, 24}
	newSystem := func() *host.System {
		sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		return sys
	}
	runners := make([]*gemm.Runner, len(counts))
	erunners := make([]*ebnn.Runner, len(counts))
	for i, tasklets := range counts {
		sys := newSystem()
		r, err := gemm.NewRunner(sys, gemm.RunnerConfig{
			MaxK: maxK, MaxN: maxN, Tasklets: tasklets, TileCols: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.EnableBatch(net.MaxFilters()); err != nil {
			t.Fatal(err)
		}
		runners[i] = r
		if erunners[i], err = ebnn.NewRunner(newSystem(), em, false, tasklets); err != nil {
			t.Fatal(err)
		}
	}

	arms := []struct {
		name    string
		forward func(i int) error
	}{
		{"Forward", func(i int) error { _, _, err := net.Forward(img, runners[i]); return err }},
		{"ForwardBatch", func(i int) error { _, _, err := net.ForwardBatch(imgs, runners[i]); return err }},
		{"eBNN Infer", func(i int) error { _, _, err := erunners[i].Infer(ds.Test); return err }},
	}
	// over reports the first bound the per-runner minima break: any
	// count against 1 tasklet, and each step on its own so a slow
	// 1-tasklet arm cannot hide a jump between two wider ones.
	over := func(best []time.Duration) string {
		for i := 1; i < len(counts); i++ {
			if r := float64(best[i]) / float64(best[0]); r > 1.25 {
				return fmt.Sprintf("%d tasklets take %.2fx the 1-tasklet wall clock (want <= 1.25x)", counts[i], r)
			}
			if r := float64(best[i]) / float64(best[i-1]); r > 1.2 {
				return fmt.Sprintf("%d tasklets take %.2fx the %d-tasklet wall clock (want <= 1.2x)", counts[i], r, counts[i-1])
			}
		}
		return ""
	}
	for _, arm := range arms {
		// Time single forwards, round-robin over the runners so machine
		// load drifts hit every side, and keep the minimum per side — the
		// forward least disturbed by scheduler noise. Round 0 warms each
		// runner's reusable staging buffers. On a loaded machine (go test
		// ./... runs packages side by side) a minimum needs more samples
		// to reach an undisturbed one, so keep sampling while a bound is
		// broken: noise converges under it, an O(tasklets) cost never does.
		best := make([]time.Duration, len(counts))
		for round := 0; round <= 1000 && (round <= 40 || over(best) != ""); round++ {
			for i := range counts {
				start := time.Now()
				if err := arm.forward(i); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); round > 0 && (best[i] == 0 || d < best[i]) {
					best[i] = d
				}
			}
		}
		t.Logf("%s: %v per forward at %v tasklets", arm.name, best, counts)
		if msg := over(best); msg != "" {
			t.Errorf("%s: %s: per-tasklet host overhead regressed", arm.name, msg)
		}
	}
}
