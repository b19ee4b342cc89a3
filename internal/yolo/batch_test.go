package yolo

import (
	"runtime"
	"slices"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/gemm"
	"pimdnn/internal/host"
)

func newBatchRunner(t *testing.T, n *Network, nDPU, tasklets int) *gemm.Runner {
	t.Helper()
	sys, err := host.NewSystem(nDPU, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	maxK, maxN := n.GEMMBounds()
	r, err := gemm.NewRunner(sys, gemm.RunnerConfig{MaxK: maxK, MaxN: maxN, Tasklets: tasklets, TileCols: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableBatch(n.MaxFilters()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestForwardBatchMatchesForward: the image-per-DPU batch path must be
// bit-exact against the per-image row-per-DPU path for every image.
func TestForwardBatchMatchesForward(t *testing.T) {
	testForwardBatchMatchesForward(t, 4, 3, false)
}

// TestForwardBatchPipelinedMatchesForward: batch GEMMs on a runner
// whose row path has just dispatched a multi-wave forward on the same
// engine must not change a single output element.
func TestForwardBatchPipelinedMatchesForward(t *testing.T) {
	testForwardBatchMatchesForward(t, 4, 3, true)
}

// TestForwardBatchShardedMatchesForward: at a sharded width the
// staging, gather → decode → bias/activation and the per-image host
// layers all run on pool workers (two of them, whatever the host has);
// results stay bit-exact. Under -race (make ci) this is the race gate
// for ForwardBatch's callbacks.
func TestForwardBatchShardedMatchesForward(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	testForwardBatchMatchesForward(t, 40, 36, false)
}

func testForwardBatchMatchesForward(t *testing.T, nDPU, nImg int, rowsFirst bool) {
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*Tensor, nImg)
	for i := range inputs {
		inputs[i] = SyntheticScene(32, int64(i+1))
	}
	r := newBatchRunner(t, n, nDPU, 8)
	if rowsFirst {
		if _, _, err := n.Forward(inputs[0], r); err != nil {
			t.Fatal(err)
		}
	}
	batchRes, stats, err := n.ForwardBatch(inputs, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(batchRes) != nImg {
		t.Fatalf("results = %d", len(batchRes))
	}
	if len(stats.Layers) != 75 || stats.Seconds <= 0 {
		t.Errorf("stats: %d layers, %.4g s", len(stats.Layers), stats.Seconds)
	}
	for i, in := range inputs {
		want, _, err := n.Forward(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := range want.YoloOutputs {
			w, g := want.YoloOutputs[s], batchRes[i].YoloOutputs[s]
			for j := range w.Data {
				if w.Data[j] != g.Data[j] {
					t.Fatalf("image %d scale %d element %d: batch %d, host %d",
						i, s, j, g.Data[j], w.Data[j])
				}
			}
		}
		if len(want.Detections) != len(batchRes[i].Detections) {
			t.Errorf("image %d: detections %d vs %d", i, len(batchRes[i].Detections), len(want.Detections))
		}
	}
}

// TestForwardBatchCountsRetries: a batch forward with a quarter of the
// DPUs killed after their first launch re-dispatches the dead DPUs'
// images, stays bit-identical to the host reference, and reports every
// re-dispatch in ForwardStats — per layer and in total.
func TestForwardBatchCountsRetries(t *testing.T) {
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*Tensor, 6)
	for i := range inputs {
		inputs[i] = SyntheticScene(32, int64(i+1))
	}
	r := newBatchRunner(t, n, 8, 8)
	r.System().InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 0.25, DeadAfterLaunches: 1})
	got, stats, err := n.ForwardBatch(inputs, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		want, _, err := n.Forward(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := range want.YoloOutputs {
			if !slices.Equal(got[i].YoloOutputs[s].Data, want.YoloOutputs[s].Data) {
				t.Fatalf("image %d scale %d: degraded batch differs from the host reference", i, s)
			}
		}
	}
	if stats.Retries == 0 {
		t.Error("no re-dispatches recorded; the fault plan kills DPUs after the first conv")
	}
	var layerRetries int
	for _, ls := range stats.Layers {
		layerRetries += ls.Retries
	}
	if layerRetries != stats.Retries {
		t.Errorf("layer retries sum %d != total %d", layerRetries, stats.Retries)
	}
}

func TestForwardBatchValidation(t *testing.T) {
	n, _ := New(tinyConfig())
	r := newBatchRunner(t, n, 2, 4)
	if _, _, err := n.ForwardBatch(nil, r); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := n.ForwardBatch([]*Tensor{NewTensor(3, 64, 64)}, r); err == nil {
		t.Error("wrong-size input accepted")
	}
	if _, _, err := n.ForwardBatch([]*Tensor{SyntheticScene(32, 1)}, nil); err == nil {
		t.Error("nil runner accepted")
	}
}

// TestMappingComparison quantifies the §6.1 future-work comparison on a
// full batch: when the batch fills the system, image-per-DPU beats
// serial row-per-DPU in total time for this narrow network.
func TestMappingComparison(t *testing.T) {
	n, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const nDPU = 4
	inputs := make([]*Tensor, nDPU)
	for i := range inputs {
		inputs[i] = SyntheticScene(32, int64(i+10))
	}

	// Row-per-DPU, images serialized.
	sys, _ := host.NewSystem(nDPU, host.DefaultConfig(dpu.O3))
	maxK, maxN := n.GEMMBounds()
	rowRunner, err := gemm.NewRunner(sys, gemm.RunnerConfig{
		MaxK: maxK, MaxN: maxN, Tasklets: 8, TileCols: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rowTotal float64
	for _, in := range inputs {
		_, st, err := n.Forward(in, rowRunner)
		if err != nil {
			t.Fatal(err)
		}
		rowTotal += st.Seconds
	}

	// Image-per-DPU, whole batch at once.
	batchRunner := newBatchRunner(t, n, nDPU, 8)
	_, stBatch, err := n.ForwardBatch(inputs, batchRunner)
	if err != nil {
		t.Fatal(err)
	}

	if stBatch.Seconds >= rowTotal {
		t.Errorf("image-per-DPU batch (%.4g s) should beat serialized row mapping (%.4g s) on a tiny network",
			stBatch.Seconds, rowTotal)
	}
	t.Logf("4-image batch on 4 DPUs: row-per-DPU %.4g s, image-per-DPU %.4g s (%.1fx)",
		rowTotal, stBatch.Seconds, rowTotal/stBatch.Seconds)
}

// TestSizeSweep answers the §6.1 scaling question: latency grows with
// input size and the per-MAC efficiency reveals where small networks
// waste the system.
func TestSizeSweep(t *testing.T) {
	ec := DefaultEstimateConfig()
	pts, err := SizeSweep([]int{96, 160, 256, 416}, 1, ec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds <= pts[i-1].Seconds {
			t.Errorf("latency not increasing: %v", pts)
		}
		if pts[i].MACs <= pts[i-1].MACs {
			t.Errorf("MACs not increasing: %v", pts)
		}
	}
	// Efficiency: tiny inputs underutilize the system (fewer columns
	// per DPU wave), so seconds-per-MAC should not improve as the
	// network shrinks dramatically.
	if pts[0].SecondsPerMAC < pts[len(pts)-1].SecondsPerMAC*0.5 {
		t.Errorf("small network looks anomalously efficient: %+v", pts)
	}
	if _, err := SizeSweep([]int{100}, 1, ec); err == nil {
		t.Error("invalid size accepted")
	}
}
