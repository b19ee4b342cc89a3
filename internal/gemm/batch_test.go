package gemm

import (
	"fmt"
	"math/rand"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// newSystem is a fresh nDPU-DPU system at opt, closed with the test.
func newSystem(t testing.TB, nDPU int, opt dpu.OptLevel) *host.System {
	t.Helper()
	sys, err := host.NewSystem(nDPU, host.DefaultConfig(opt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// mustRunner is NewRunner on sys, failing the test on error.
func mustRunner(t testing.TB, sys *host.System, cfg RunnerConfig) *Runner {
	t.Helper()
	r, err := NewRunner(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newBatchRunner(t *testing.T, nDPU, maxM int, cfg RunnerConfig) *Runner {
	t.Helper()
	r := mustRunner(t, newSystem(t, nDPU, dpu.O3), cfg)
	if err := r.EnableBatch(maxM); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBatchMatchesReference: the image-per-DPU mapping must produce the
// same bits as the host Algorithm 2 for every image in the batch.
func TestBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const m, n, k = 6, 70, 18
	r := newBatchRunner(t, 3, m, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 16})
	a := randMat(rng, m*k, 100)
	bs := make([][]int16, 3)
	for i := range bs {
		bs[i] = randMat(rng, k*n, 100)
	}
	got, st, err := r.MultiplyBatch(m, n, k, 1, a, bs)
	if err != nil {
		t.Fatal(err)
	}
	if st.DPUsUsed != 3 || st.Waves != 1 {
		t.Errorf("stats = %+v", st)
	}
	for i := range bs {
		want, err := Reference(m, n, k, 1, a, bs[i])
		if err != nil {
			t.Fatal(err)
		}
		checkC(t, fmt.Sprintf("image %d", i), got[i], want)
	}
}

// TestBatchVersusRowMappingTradeoff answers the §6.1 future-work
// question: with enough images in flight, image-per-DPU has higher
// throughput (it wastes no DPUs when M is small), while row-per-DPU
// retains the lower single-image latency.
func TestBatchVersusRowMappingTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const (
		m, n, k = 4, 256, 32 // few filters: row mapping uses only 4 DPUs
		nDPU    = 8
		batch   = 8
	)
	a := randMat(rng, m*k, 100)
	bs := make([][]int16, batch)
	for i := range bs {
		bs[i] = randMat(rng, k*n, 100)
	}

	// Row-per-DPU: images processed one after another.
	rowRunner := mustRunner(t, newSystem(t, nDPU, dpu.O3), RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 32})
	var rowCycles uint64
	var rowSingle uint64
	for i := range bs {
		_, st, err := rowRunner.Multiply(m, n, k, 1, a, bs[i])
		if err != nil {
			t.Fatal(err)
		}
		rowCycles += st.Cycles
		rowSingle = st.Cycles
	}

	// Image-per-DPU: the whole batch in one launch.
	batchRunner := newBatchRunner(t, nDPU, m, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 32})
	_, stBatch, err := batchRunner.MultiplyBatch(m, n, k, 1, a, bs)
	if err != nil {
		t.Fatal(err)
	}

	if stBatch.Cycles >= rowCycles {
		t.Errorf("batch mapping (%d cycles) should beat serial row mapping (%d) for %d images on %d DPUs",
			stBatch.Cycles, rowCycles, batch, nDPU)
	}
	if rowSingle >= stBatch.Cycles {
		t.Errorf("row mapping should retain the single-image latency edge: single %d vs batch %d",
			rowSingle, stBatch.Cycles)
	}
	t.Logf("8-image batch: row-per-DPU %d cycles total (%d per image), image-per-DPU %d cycles total (%.1fx throughput)",
		rowCycles, rowSingle, stBatch.Cycles, float64(rowCycles)/float64(stBatch.Cycles))
}
