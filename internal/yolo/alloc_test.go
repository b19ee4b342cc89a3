package yolo

import (
	"fmt"
	"runtime"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
)

// TestForwardSteadyStateAllocBound pins the per-forward allocation
// budget of the DPU-delegated YOLO path. A 75-conv forward on a warm
// runner writes every activation into the network's reused arena, so it
// allocates only the copied-out heads, the stats (their layer list
// sized once) and the launch bookkeeping: 14 allocations at one worker,
// 250 at two. The bound fails loudly if a per-layer result tensor, a
// per-layer stats append, or a per-wave or per-tile allocation returns.
// The runner is the root package's BenchmarkSimulatorWallClock's (2
// DPUs, O3, 11 tasklets, 64-column tiles), so this is that benchmark's
// allocation gate.
//
// Everything the budget depends on is pinned, so the test reads the
// same on every host: the worker-pool width (with a second worker every
// launch fans out, which costs a run descriptor and its range closures:
// ~3 per conv layer).
func TestForwardSteadyStateAllocBound(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector perturbs AllocsPerRun by detector-internal allocations")
	}
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := SyntheticScene(32, 9)
	maxK, maxN := n.GEMMBounds()
	for _, tc := range []struct {
		procs int
		bound float64
	}{{1, 16}, {2, 290}} {
		t.Run(fmt.Sprintf("procs%d", tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O3))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			r, err := gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, Tasklets: 11, TileCols: 64})
			if err != nil {
				t.Fatal(err)
			}
			// Warm the runner's reusable staging buffers out of the
			// measurement.
			if _, _, err := n.Forward(in, r); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(20, func() {
				if _, _, err := n.Forward(in, r); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("Forward steady state: %.1f allocs per call", avg)
			if avg > tc.bound {
				t.Errorf("Forward steady state allocates %.1f per call, want <= %.0f (the copied-out heads + launch bookkeeping only)", avg, tc.bound)
			}
		})
	}
}

// TestForwardBatchSteadyStateAllocBound pins the bytes a steady-state
// 64-image ForwardBatch allocates per image: the copied-out heads and
// their headers. Every activation lives in the network's reused arena
// and every product is decoded into it, so a per-layer result tensor
// (the 2×32×32 first conv alone is 4 KB) breaks the bound.
func TestForwardBatchSteadyStateAllocBound(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector perturbs allocation counts by detector-internal allocations")
	}
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const nImg = dpu.DPUsPerRank
	inputs := make([]*Tensor, nImg)
	for i := range inputs {
		inputs[i] = SyntheticScene(32, int64(i+1))
	}
	r := newBatchRunner(t, n, nImg, 8)
	defer r.System().Close()
	pass := func() {
		if _, _, err := n.ForwardBatch(inputs, r); err != nil {
			t.Fatal(err)
		}
	}
	pass() // warm the runner's staging and the network's arena
	const passes = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	perImage := float64(after.TotalAlloc-before.TotalAlloc) / passes / nImg
	t.Logf("ForwardBatch steady state: %.0f B per image per pass", perImage)
	if perImage > 4096 {
		t.Errorf("ForwardBatch allocates %.0f B per image per pass, want <= 4096", perImage)
	}
}
