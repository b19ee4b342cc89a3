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
// runner allocates only per-layer result tensors and launch bookkeeping
// (~460 on this graph); it used to allocate ~2178 before the exec
// engine's per-wave stats and the im2col staging were made reusable.
// The bound fails loudly if per-wave or per-tile allocation returns.
// The runner is the root package's BenchmarkSimulatorWallClock's (2
// DPUs, O3, 11 tasklets, 64-column tiles), so this is that benchmark's
// allocation gate.
//
// Everything the budget depends on is pinned, so the test reads the
// same on every host: the worker-pool width (with a second worker every
// launch fans out,
// which costs a run descriptor and its range closures: ~3 per conv
// layer, ~700 in all).
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
	}{{1, 520}, {2, 760}} {
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
			if avg > tc.bound {
				t.Errorf("Forward steady state allocates %.1f per call, want <= %.0f (per-layer results + launch bookkeeping only)", avg, tc.bound)
			}
		})
	}
}
