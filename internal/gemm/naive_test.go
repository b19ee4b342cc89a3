package gemm

import (
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// TestNaiveSlowerThanTiled: the MRAM-resident ctmp makes the thesis's
// kernel substantially slower than the WRAM-tiled one — the §4.3.3
// takeaway ("increase the number of WRAM accesses vs. MRAM ones").
func TestNaiveSlowerThanTiled(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, n, k = 1, 1024, 32
	a := randMat(rng, m*k, 100)
	b := randMat(rng, k*n, 100)

	run := func(naive bool) uint64 {
		sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O3))
		r, err := NewRunner(sys, RunnerConfig{
			MaxK: k, MaxN: n, Tasklets: 11, TileCols: 256, Naive: naive,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := r.Multiply(m, n, k, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	naive, tiled := run(true), run(false)
	ratio := float64(naive) / float64(tiled)
	if ratio < 2 {
		t.Errorf("naive/tiled = %.2f (naive %d, tiled %d); MRAM-bound kernel should be much slower",
			ratio, naive, tiled)
	}
	t.Logf("naive kernel is %.1fx slower than the tiled improvement", ratio)
}

// TestNaiveThreadingSaturatesEarly: with per-element MRAM traffic the DMA
// engine becomes the bottleneck, so tasklet scaling stops helping well
// before the pipeline depth — the YOLOv3-vs-eBNN contrast of §4.3.3.
func TestNaiveThreadingSaturatesEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, n, k = 1, 512, 16
	a := randMat(rng, m*k, 100)
	b := randMat(rng, k*n, 100)
	cycles := func(tasklets int) uint64 {
		sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O3))
		r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: tasklets, Naive: true})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := r.Multiply(m, n, k, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	c1, c2, c11 := cycles(1), cycles(2), cycles(11)
	if c2 >= c1 {
		t.Errorf("2 tasklets (%d) not faster than 1 (%d)", c2, c1)
	}
	// Speedup at 11 tasklets is bounded by DMA serialization.
	speedup := float64(c1) / float64(c11)
	if speedup > 6 {
		t.Errorf("naive kernel speedup at 11 tasklets = %.1f; DMA should cap it below compute-bound scaling", speedup)
	}
}
