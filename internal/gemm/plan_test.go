package gemm

import (
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
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
		sys, err := host.NewSystem(8, host.DefaultConfig(dpu.O3))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		p := plan.New(sys)
		r, err := NewRunner(sys, RunnerConfig{MaxK: 128, MaxN: 600, Naive: naive, Planner: p})
		if err != nil {
			t.Fatal(err)
		}
		// Shapes spanning one tile, a partial tail tile, and more rows
		// than DPUs (multi-wave).
		for _, sh := range [][3]int{{3, 300, 128}, {3, 65, 37}, {20, 600, 64}} {
			m, n, k := sh[0], sh[1], sh[2]
			_, st, err := r.Multiply(m, n, k, 1, randOperand(rng, m*k), randOperand(rng, k*n))
			if err != nil {
				t.Fatal(err)
			}
			mp, ok := r.LastMapping()
			if !ok {
				t.Fatal("planner runner reported no mapping")
			}
			if mp.PredictedSeconds != st.Seconds {
				t.Errorf("naive=%v m=%d n=%d k=%d: predicted %.9gs != simulated %.9gs",
					naive, m, n, k, mp.PredictedSeconds, st.Seconds)
			}
			if st.Tasklets != mp.Tasklets {
				t.Errorf("naive=%v: launched %d tasklets, planned %d", naive, st.Tasklets, mp.Tasklets)
			}
		}
	}

	// Batch kernel (image-per-DPU, single wave over <= NumDPUs images).
	sys, err := host.NewSystem(8, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := plan.New(sys)
	r, err := NewRunner(sys, RunnerConfig{MaxK: 64, MaxN: 200, Planner: p})
	if err != nil {
		t.Fatal(err)
	}
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
	mp, ok := r.LastMapping()
	if !ok {
		t.Fatal("batch planner runner reported no mapping")
	}
	if mp.PredictedSeconds != st.Seconds {
		t.Errorf("batch: predicted %.9gs != simulated %.9gs", mp.PredictedSeconds, st.Seconds)
	}
	if st.Tasklets != mp.Tasklets {
		t.Errorf("batch: launched %d tasklets, planned %d", st.Tasklets, mp.Tasklets)
	}
}

// TestPlannerWRAMCap: with no explicit tasklet count the planner-backed
// runner sizes its WRAM allocation from the feasibility cap, and the
// batch path lowers the cap for its per-tasklet A-row cache.
func TestPlannerWRAMCap(t *testing.T) {
	sys, err := host.NewSystem(4, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := plan.New(sys)
	// AlexNet-scale K: the row cap stays high, the batch cap collapses.
	maxK := 9216
	rowCap := p.GEMMTaskletCap(maxK, DefaultTileCols, false)
	batchCap := p.GEMMTaskletCap(maxK, DefaultTileCols, true)
	if rowCap < 1 || rowCap > dpu.MaxTasklets {
		t.Fatalf("row cap %d outside 1..%d", rowCap, dpu.MaxTasklets)
	}
	if batchCap >= rowCap {
		t.Errorf("batch cap %d should fall below row cap %d (per-tasklet A cache)", batchCap, rowCap)
	}
	r, err := NewRunner(sys, RunnerConfig{MaxK: maxK, MaxN: 512, Planner: p})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasklets() != rowCap {
		t.Errorf("planner runner allocated %d tasklets, want WRAM cap %d", r.Tasklets(), rowCap)
	}
	// At this K the row-cap tile area leaves no WRAM for even one batch
	// A-row cache slot; EnableBatch must refuse rather than overcommit.
	if err := r.EnableBatch(4); err == nil {
		t.Errorf("EnableBatch(MaxK=%d) after row-cap allocation should exhaust WRAM", maxK)
	}

	// A moderate K fits both: tile area at the row cap plus a reduced
	// set of cache slots in the remainder.
	sys2, err := host.NewSystem(4, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	r2, err := NewRunner(sys2, RunnerConfig{MaxK: 1152, MaxN: 512, Planner: plan.New(sys2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.EnableBatch(4); err != nil {
		t.Fatalf("EnableBatch(MaxK=1152) with planner: %v", err)
	}
}
