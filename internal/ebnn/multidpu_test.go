package ebnn

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

// TestMultiDPUParallelism verifies the §4.1.3 claim behind Fig 4.7(c):
// N DPUs finish N batches in the time of one ("run in parallel to finish
// their batch of images at the max time for one DPU"), so throughput is
// linear in DPU count.
func TestMultiDPUParallelism(t *testing.T) {
	ds := mnist.Load(200, 64, 41)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	m, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(nDPU, images int) BatchStats {
		sys, err := host.NewSystem(nDPU, host.DefaultConfig(dpu.O0))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(sys, m, true, 16)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := r.Infer(ds.Test[:images])
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	one := run(1, 16)  // 1 DPU, 1 batch
	four := run(4, 64) // 4 DPUs, 4 batches in parallel
	// 4x the images in (approximately) the same wall time: per-DPU
	// image counts are equal, so the parallel max matches one batch.
	ratio := four.Seconds / one.Seconds
	if ratio > 1.05 {
		t.Errorf("4 DPUs on 4x images took %.2fx one batch, want ~1x (parallel)", ratio)
	}
	if four.Throughput() < one.Throughput()*3.5 {
		t.Errorf("throughput scaled %.1fx with 4 DPUs, want ~4x",
			four.Throughput()/one.Throughput())
	}
}

// TestFilterCountGenerality: the runner must work for any 1..8 filters,
// with the result byte carrying exactly F meaningful bits.
func TestFilterCountGenerality(t *testing.T) {
	ds := mnist.Load(120, 8, 43)
	for _, f := range []int{1, 4, 8} {
		cfg := DefaultTrainConfig()
		cfg.Filters = f
		cfg.Epochs = 4
		m, err := Train(ds, cfg)
		if err != nil {
			t.Fatalf("F=%d: %v", f, err)
		}
		sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O0))
		r, err := NewRunner(sys, m, true, 8)
		if err != nil {
			t.Fatalf("F=%d: %v", f, err)
		}
		preds, _, err := r.Infer(ds.Test)
		if err != nil {
			t.Fatalf("F=%d: %v", f, err)
		}
		lut := m.BuildLUT()
		for i := range ds.Test {
			want := m.PredictFeatures(m.FeaturesViaLUT(&ds.Test[i], lut))
			if preds[i] != want {
				t.Errorf("F=%d image %d: DPU %d, host %d", f, i, preds[i], want)
			}
		}
		// Unused filter bits in the result byte must be zero.
		raw := readResults(t, r, 0, ResultSize)
		for cell := 0; cell < PoolCells; cell++ {
			if raw[cell]>>uint(f) != 0 {
				t.Fatalf("F=%d: cell %d has bits above filter count: %08b", f, cell, raw[cell])
			}
		}
	}
}

// TestLUTWRAMStagingCharged: the LUT copy from MRAM to WRAM (§4.1.4) must
// appear in tasklet 0's DMA accounting.
func TestLUTWRAMStagingCharged(t *testing.T) {
	ds := mnist.Load(100, 4, 44)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := host.NewSystem(1, host.DefaultConfig(dpu.O0))
	r, err := NewRunner(sys, m, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Infer(ds.Test); err != nil {
		t.Fatal(err)
	}
	// Rerun the kernel directly to inspect per-launch stats: DMA must
	// include the 152-byte LUT staging transfer (25 + 76 cycles).
	st, err := sys.DPU(0).Launch(2, r.kernel())
	if err != nil {
		t.Fatal(err)
	}
	if st.DMACycles < dpu.DMACost(lutWRAMSize) {
		t.Errorf("DMA cycles %d do not cover the LUT staging transfer (%d)",
			st.DMACycles, dpu.DMACost(lutWRAMSize))
	}
}
