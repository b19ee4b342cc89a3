package gemm

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
)

// The GEMM kernels used to allocate a fresh B chunk per k-iteration per
// tile (plus per-launch A/APART/ctmp/out slices), which put the Go
// garbage collector in the simulator's inner loop. With the pooled
// per-tasklet scratch, a steady-state Multiply allocates only the result
// slice and the per-launch stats the host API returns — a small constant
// independent of K, N, and the tile count. The generous bound below
// fails loudly if per-iteration allocation ever returns (the pre-rework
// kernel allocated hundreds per call on this problem size).
func TestMultiplySteadyStateAllocBound(t *testing.T) {
	sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const m, n, k = 2, 96, 64
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int16, m*k)
	b := make([]int16, k*n)
	for i := range a {
		a[i] = int16(i%7 - 3)
	}
	for i := range b {
		b[i] = int16(i%5 - 2)
	}
	// 6 tiles x 64 k-iterations: any per-inner-iteration allocation
	// shows up as hundreds of allocs per run.
	avg := testing.AllocsPerRun(50, func() {
		if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 48 {
		t.Errorf("Multiply steady state allocates %.1f per call, want <= 48 (launch bookkeeping + result only)", avg)
	}

	// A multi-wave problem (m = 4x the DPU count) at both pinned depths:
	// handing each wave to the in-flight goroutine must allocate nothing,
	// so depth 2 allocates no more per call than depth 1 (a goroutine
	// started through a capturing closure costs one allocation per wave).
	if raceDetectorEnabled {
		return
	}
	const waves = 4
	perCall := map[host.PipelineMode]float64{}
	for _, mode := range []host.PipelineMode{host.PipelineOff, host.PipelineOn} {
		sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O3))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16,
			Exec: exec.Config{Pipeline: mode}})
		if err != nil {
			t.Fatal(err)
		}
		a := make([]int16, waves*2*k)
		var st Stats
		perCall[mode] = testing.AllocsPerRun(50, func() {
			if _, st, err = r.Multiply(waves*2, n, k, 1, a, b); err != nil {
				t.Fatal(err)
			}
		})
		if st.Waves != waves {
			t.Fatalf("mode %d: %d waves, want %d", mode, st.Waves, waves)
		}
	}
	if on, off := perCall[host.PipelineOn], perCall[host.PipelineOff]; on > off {
		t.Errorf("depth 2 allocates %.1f per %d-wave Multiply, depth 1 %.1f", on, waves, off)
	}
}

// The naive (thesis-faithful) kernel shares the same scratch pool.
func TestMultiplyNaiveSteadyStateAllocBound(t *testing.T) {
	sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const m, n, k = 2, 96, 64
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int16, m*k)
	b := make([]int16, k*n)
	for i := range a {
		a[i] = int16(i%7 - 3)
	}
	for i := range b {
		b[i] = int16(i%5 - 2)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 48 {
		t.Errorf("naive Multiply steady state allocates %.1f per call, want <= 48", avg)
	}
}
