package gemm

import (
	"testing"

	"pimdnn/internal/dpu"
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
	sys := newSystem(t, 2, dpu.O3)
	const m, n, k = 2, 96, 64
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, b := pipelineProblem(m, n, k)
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

	// Alternating wave widths (m = 2 and m = 1 rows on 2 DPUs, as a
	// network's layers do) must allocate no more per call than one width:
	// the row staging's per-DPU slice headers are sized once, for every
	// DPU, and resliced.
	if raceDetectorEnabled {
		return
	}
	alt := testing.AllocsPerRun(50, func() {
		for _, rows := range []int{1, m} {
			if _, _, err := r.Multiply(rows, n, k, 1, a[:rows*k], b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if alt/2 > avg {
		t.Errorf("alternating widths allocate %.1f per Multiply, one width %.1f", alt/2, avg)
	}
}

// The naive (thesis-faithful) kernel shares the same scratch pool.
func TestMultiplyNaiveSteadyStateAllocBound(t *testing.T) {
	sys := newSystem(t, 2, dpu.O0)
	const m, n, k = 2, 96, 64
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := pipelineProblem(m, n, k)
	avg := testing.AllocsPerRun(50, func() {
		if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 48 {
		t.Errorf("naive Multiply steady state allocates %.1f per call, want <= 48", avg)
	}
}
