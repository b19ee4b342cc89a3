package plan

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/model"
)

func testPlanner() *Planner {
	return NewFromConfig(64, dpu.DefaultConfig(dpu.O3))
}

func TestFixedMappings(t *testing.T) {
	row := Fixed(RowsPerDPU)
	if row.Tasklets != FixedTasklets || row.TileCols != FixedTileCols {
		t.Errorf("Fixed(RowsPerDPU) = %+v", row)
	}
	if FixedTasklets != dpu.PipelineDepth {
		t.Errorf("FixedTasklets %d != pipeline depth %d", FixedTasklets, dpu.PipelineDepth)
	}
	batch := Fixed(ImagePerDPU)
	if batch.Tasklets != FixedBatchTasklets {
		t.Errorf("Fixed(ImagePerDPU) tasklets = %d", batch.Tasklets)
	}
}

// TestGEMMDeterminism: same shape + same topology must always produce
// the same mapping — across repeated calls (cache hits), across fresh
// planners (cold search), and across the memoized/unmemoized boundary.
func TestGEMMDeterminism(t *testing.T) {
	shapes := [][3]int{{16, 256, 27}, {4, 1024, 288}, {64, 100, 1152}, {1, 8, 9}}
	first := make([]Mapping, len(shapes))
	p := testPlanner()
	for i, sh := range shapes {
		first[i] = p.GEMM(sh[0], sh[1], sh[2], GEMMOptions{})
	}
	for round := 0; round < 2; round++ {
		q := testPlanner() // fresh planner: no shared cache
		for i, sh := range shapes {
			if got := p.GEMM(sh[0], sh[1], sh[2], GEMMOptions{}); got != first[i] {
				t.Errorf("repeat plan for %v changed: %+v vs %+v", sh, got, first[i])
			}
			if got := q.GEMM(sh[0], sh[1], sh[2], GEMMOptions{}); got != first[i] {
				t.Errorf("fresh-planner plan for %v changed: %+v vs %+v", sh, got, first[i])
			}
		}
	}
}

// TestWaveGeometry pins the derived axes: wave width is min(shards,
// system), waves cover all shards, and predicted latency scales with
// waves.
func TestWaveGeometry(t *testing.T) {
	p := testPlanner()
	one := p.GEMM(16, 256, 64, GEMMOptions{})
	if one.DPUs != 16 || one.Waves != 1 {
		t.Errorf("16 rows on 64 DPUs: %+v", one)
	}
	multi := p.GEMM(130, 256, 64, GEMMOptions{})
	if multi.DPUs != 64 || multi.Waves != 3 {
		t.Errorf("130 rows on 64 DPUs: %+v", multi)
	}
	if multi.PredictedWaveCycles != one.PredictedWaveCycles {
		t.Errorf("per-wave cycles changed with shard count: %d vs %d",
			multi.PredictedWaveCycles, one.PredictedWaveCycles)
	}
	want := float64(one.PredictedWaveCycles) * 3 / p.Frequency()
	if multi.PredictedSeconds != want {
		t.Errorf("3-wave latency %g, want %g", multi.PredictedSeconds, want)
	}
}

// TestTaskletCapWRAM: the cap shrinks as the shared A row grows, batch
// mode's per-tasklet cache shrinks it further, and it clamps to
// [1, MaxTasklets].
func TestTaskletCapWRAM(t *testing.T) {
	p := testPlanner()
	if c := p.GEMMTaskletCap(64, 256, false); c != dpu.MaxTasklets {
		t.Errorf("small-K cap = %d, want %d", c, dpu.MaxTasklets)
	}
	row := p.GEMMTaskletCap(9216, 256, false)
	batch := p.GEMMTaskletCap(9216, 256, true)
	if row <= batch {
		t.Errorf("row cap %d should exceed batch cap %d at large K", row, batch)
	}
	if batch < 1 {
		t.Errorf("batch cap %d < 1", batch)
	}
	if c := p.GEMMTaskletCap(1<<20, 256, true); c != 1 {
		t.Errorf("infeasible config cap = %d, want floor 1", c)
	}
	// Planned tasklet counts never exceed the cap.
	mp := p.GEMM(8, 512, 9216, GEMMOptions{MaxK: 9216})
	if mp.Tasklets > row {
		t.Errorf("planned %d tasklets above WRAM cap %d", mp.Tasklets, row)
	}
}

// TestPlanPicksCheaperMode: Plan must return whichever of row and batch
// mapping predicts the lower whole-dispatch latency.
func TestPlanPicksCheaperMode(t *testing.T) {
	p := testPlanner()
	for _, tc := range []struct {
		m, n, k, images int
	}{
		{4, 256, 64, 64}, // many small images: batch amortizes waves
		{64, 2048, 576, 2},
	} {
		row := p.GEMM(tc.m, tc.n, tc.k, GEMMOptions{})
		rowTotal := row.PredictedSeconds * float64(tc.images)
		batch := p.GEMMBatch(tc.m, tc.n, tc.k, tc.images, GEMMOptions{})
		got := p.Plan(tc.m, tc.n, tc.k, tc.images, GEMMOptions{})
		wantBatch := batch.PredictedSeconds < rowTotal
		if (got.Mode == ImagePerDPU) != wantBatch {
			t.Errorf("%+v: Plan chose %v (row total %g, batch %g)",
				tc, got.Mode, rowTotal, batch.PredictedSeconds)
		}
	}
}

// TestEBNNPlan pins the multi-image-per-DPU geometry, including the
// partial-final-shard cases.
func TestEBNNPlan(t *testing.T) {
	p := testPlanner()
	sh := model.EBNNShape{Filters: 8, Cells: 49, Side: 28, PackedBytes: 128, ResultBytes: 176, LUTBytes: 152, UseLUT: true}

	full := p.EBNN(sh, 96, 16)
	if full.DPUs != 6 || full.Waves != 1 {
		t.Errorf("96 images / 16 per DPU: %+v", full)
	}
	if want := float64(full.PredictedWaveCycles) / p.Frequency(); full.PredictedSeconds != want {
		t.Errorf("single-wave seconds %g != wave cycles %g", full.PredictedSeconds, want)
	}

	// A partial shard sharing the only wave with full shards costs
	// nothing extra — the full shards dominate the wave maximum.
	mixed := p.EBNN(sh, 40, 16)
	if mixed.DPUs != 3 || mixed.Waves != 1 {
		t.Errorf("40 images: %+v", mixed)
	}
	if mixed.PredictedSeconds != full.PredictedSeconds/1 && mixed.PredictedWaveCycles != full.PredictedWaveCycles {
		t.Errorf("mixed wave should cost the full-batch maximum")
	}

	// 64 DPUs * 16 + 8 images: the second wave holds only the 8-image
	// shard and must be priced at the partial cost.
	tail := p.EBNN(sh, 64*16+8, 16)
	if tail.DPUs != 64 || tail.Waves != 2 {
		t.Errorf("tail case: %+v", tail)
	}
	fullWave := float64(tail.PredictedWaveCycles) / p.Frequency()
	if tail.PredictedSeconds >= 2*fullWave {
		t.Errorf("partial second wave not discounted: %g vs 2x%g", tail.PredictedSeconds, fullWave)
	}

	// Determinism across repeated plans.
	if again := p.EBNN(sh, 96, 16); again != full {
		t.Errorf("repeat eBNN plan changed: %+v vs %+v", again, full)
	}
}

// TestCacheConcurrency hammers the copy-on-write cache from many
// goroutines (run under -race by the Makefile's race list).
func TestCacheConcurrency(t *testing.T) {
	p := testPlanner()
	shapes := [][3]int{{16, 256, 27}, {4, 1024, 288}, {64, 100, 1152}}
	want := make([]Mapping, len(shapes))
	for i, sh := range shapes {
		want[i] = p.GEMM(sh[0], sh[1], sh[2], GEMMOptions{})
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for round := 0; round < 50; round++ {
				for i, sh := range shapes {
					if got := p.GEMM(sh[0], sh[1], sh[2], GEMMOptions{}); got != want[i] {
						done <- nil
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestWarmLookupAllocFree pins the serving path's planning cost: every
// forward re-plans each layer's shape, so after the first pass every
// GEMM and Plan call is a cache hit and must allocate nothing.
func TestWarmLookupAllocFree(t *testing.T) {
	p := NewFromConfig(dpu.SystemDPUs, dpu.DefaultConfig(dpu.O3))
	shapes := [][3]int{{16, 1024, 27}, {32, 256, 144}, {64, 64, 288}, {18, 64, 864}}
	lookup := func() {
		for _, sh := range shapes {
			p.GEMM(sh[0], sh[1], sh[2], GEMMOptions{})
			p.Plan(sh[0], sh[1], sh[2], 4, GEMMOptions{})
		}
	}
	lookup() // warm the shape cache
	if n := testing.AllocsPerRun(100, lookup); n != 0 {
		t.Errorf("warm GEMM+Plan lookups allocate %v per pass, want 0", n)
	}
}
