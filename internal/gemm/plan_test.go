package gemm

import (
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/plan"
)

// TestPlanFixedTileColsMatchesDefault pins the cross-package mirror:
// plan cannot import gemm (gemm imports plan), so it re-states the
// default tile width as plan.FixedTileCols. The two constants must
// never drift apart.
func TestPlanFixedTileColsMatchesDefault(t *testing.T) {
	if plan.FixedTileCols != DefaultTileCols {
		t.Fatalf("plan.FixedTileCols = %d, gemm.DefaultTileCols = %d", plan.FixedTileCols, DefaultTileCols)
	}
	if plan.FixedTasklets != dpu.PipelineDepth {
		t.Fatalf("plan.FixedTasklets = %d, pipeline depth = %d", plan.FixedTasklets, dpu.PipelineDepth)
	}
}

func randOperand(rng *rand.Rand, n int) []int16 {
	s := make([]int16, n)
	for i := range s {
		s[i] = int16(rng.Intn(256) - 128)
	}
	return s
}

// TestPlannerPredictionExact holds the planner's analytic latency
// against the simulator for all three kernel families. The cost model
// mirrors the kernels charge by charge, so on the fault-free path the
// prediction must be EXACT — not approximately right — for any shape
// and any operand values.
func TestPlannerPredictionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, naive := range []bool{false, true} {
		sys := newSystem(t, 8, dpu.O3)
		p := plan.New(sys)
		r := mustRunner(t, sys, RunnerConfig{MaxK: 128, MaxN: 600, Naive: naive, Planner: p})
		// Shapes spanning one tile, a partial tail tile, and more rows
		// than DPUs (multi-wave).
		for _, sh := range [][3]int{{3, 300, 128}, {3, 65, 37}, {20, 600, 64}} {
			m, n, k := sh[0], sh[1], sh[2]
			_, st, err := r.Multiply(m, n, k, 1, randOperand(rng, m*k), randOperand(rng, k*n))
			if err != nil {
				t.Fatal(err)
			}
			mp := p.GEMM(m, n, k, plan.GEMMOptions{TileCols: DefaultTileCols, Naive: naive, MaxK: 128, MaxTasklets: r.Tasklets()})
			if st.PredictedSeconds != st.Seconds {
				t.Errorf("naive=%v m=%d n=%d k=%d: predicted %.9gs != simulated %.9gs",
					naive, m, n, k, st.PredictedSeconds, st.Seconds)
			}
			if st.Tasklets != mp.Tasklets {
				t.Errorf("naive=%v: launched %d tasklets, planned %d", naive, st.Tasklets, mp.Tasklets)
			}
		}
	}

	// Batch kernel (image-per-DPU, single wave over <= NumDPUs images).
	sys := newSystem(t, 8, dpu.O3)
	p := plan.New(sys)
	r := mustRunner(t, sys, RunnerConfig{MaxK: 64, MaxN: 200, Planner: p})
	if err := r.EnableBatch(5); err != nil {
		t.Fatal(err)
	}
	a := randOperand(rng, 5*64)
	bs := make([][]int16, 8)
	for i := range bs {
		bs[i] = randOperand(rng, 64*200)
	}
	st, err := r.MultiplyBatchEach(5, 200, 64, 1, a, bs, func(i int, c []int16) {})
	if err != nil {
		t.Fatal(err)
	}
	mp := p.GEMMBatch(5, 200, 64, len(bs), plan.GEMMOptions{TileCols: DefaultTileCols, MaxK: 64, MaxTasklets: r.batchAllocT})
	if st.PredictedSeconds != st.Seconds {
		t.Errorf("batch: predicted %.9gs != simulated %.9gs", st.PredictedSeconds, st.Seconds)
	}
	if st.Tasklets != mp.Tasklets {
		t.Errorf("batch: launched %d tasklets, planned %d", st.Tasklets, mp.Tasklets)
	}
}

// TestPlannerWRAMCap: at each (MaxK, tile width, batch) point the
// planner's tasklet cap is the largest count at which NewRunner (plus
// EnableBatch) succeeds on a fresh System and a launch at that width
// runs, and the row-cap allocation at MaxK 9216 leaves no WRAM for an
// A-row cache slot. The cap's planner-only properties (floor 1, bound on
// the planned count) are plan.TestTaskletCapWRAM's.
func TestPlannerWRAMCap(t *testing.T) {
	p := plan.NewFromConfig(1, dpu.DefaultConfig(dpu.O3))
	newRunner := func(maxK, tasklets int) *Runner {
		sys := newSystem(t, 1, dpu.O3)
		r, _ := NewRunner(sys, RunnerConfig{MaxK: maxK, MaxN: 8, Tasklets: tasklets, Planner: plan.New(sys)})
		return r
	}
	for _, c := range []struct {
		maxK  int
		batch bool
	}{{288, false}, {9216, false}, {288, true}, {1152, true}} {
		runs := func(tasklets int) bool {
			r := newRunner(c.maxK, tasklets)
			if r == nil || c.batch && r.EnableBatch(1) != nil {
				return false
			}
			kernel, m, aoff := r.Kernel(), 0, r.aOff
			if c.batch {
				kernel, m, aoff = r.batchKernel, 1, r.aFullOff
			}
			_, err := launchRaw(r, kernel, tasklets, 8, c.maxK, m, aoff)
			return err == nil
		}
		want := dpu.MaxTasklets
		for want > 1 && !runs(want) {
			want--
		}
		if got := p.GEMMTaskletCap(c.maxK, DefaultTileCols, c.batch); got != want {
			t.Errorf("MaxK %d batch %v: cap %d, widest launch that runs %d", c.maxK, c.batch, got, want)
		}
	}
	rowCap := p.GEMMTaskletCap(9216, DefaultTileCols, false)
	if r := newRunner(9216, 0); r.Tasklets() != rowCap || r.EnableBatch(4) == nil {
		t.Errorf("planner runner at MaxK 9216: %d tasklets (cap %d), EnableBatch must exhaust WRAM", r.Tasklets(), rowCap)
	}
}
