package ebnn

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/mnist"
)

// TestImbalanceDetectsEBNNDip: the real eBNN launch at 11 tasklets on a
// 16-image batch is imbalanced (ceil(16/11) = 2 images on five tasklets),
// while 16 tasklets balance perfectly — the Fig 4.7(a) dip, end to end
// through Stats.Imbalance. 1.375 is over the advisor's 1.25 threshold
// (core.TestAdvisorBalanceRule holds the rule at that value).
func TestImbalanceDetectsEBNNDip(t *testing.T) {
	ds := mnist.Load(120, 16, 91)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	m, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imbalanceAt := func(tasklets int) float64 {
		sys, err := host.NewSystem(1, host.DefaultConfig(dpu.O0))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(sys, m, true, tasklets)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Infer(ds.Test); err != nil {
			t.Fatal(err)
		}
		// Re-run the kernel directly to obtain per-tasklet stats.
		st, err := sys.DPU(0).Launch(tasklets, r.kernel())
		if err != nil {
			t.Fatal(err)
		}
		return st.Imbalance()
	}
	at11 := imbalanceAt(11)
	at16 := imbalanceAt(16)
	// ceil(16/11)=2 images on five tasklets vs 16/11 mean: ratio 1.375.
	if at11 < 1.3 || at11 > 1.45 {
		t.Errorf("11 tasklets on 16 images: imbalance %.2f, expected ~1.375 (the Fig 4.7a dip)", at11)
	}
	if at16 > 1.2 {
		t.Errorf("16 tasklets on 16 images: imbalance %.2f, expected ~1", at16)
	}
}
