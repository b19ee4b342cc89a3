package ebnn

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
)

// TestInferFaultRecovery: a DPU dying between inference waves must not
// change a single prediction — its 16-image batches are re-dispatched
// onto surviving DPUs, which compute bit-identical results. Seed 1 with
// DeadFrac 0.3 deterministically dooms DPU 1 of a 4-DPU system (25% of
// the array); DeadAfterLaunches 1 lets it finish the first wave before
// dying mid-run.
func TestInferFaultRecovery(t *testing.T) {
	m, ds := trainForKernel(t)
	// 128 images on 4 DPUs = two full waves of 16-image batches.
	images := ds.Train[:128]

	clean, err := host.NewSystem(4, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	rClean, err := NewRunner(clean, m, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rClean.Infer(images)
	if err != nil {
		t.Fatal(err)
	}

	// One dispatch depth: the sync and pipelined cells run alike.
	for _, mode := range []string{"sync", "pipelined"} {
		t.Run(mode, func(t *testing.T) {
			sys, err := host.NewSystem(4, host.DefaultConfig(dpu.O0))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			r, err := NewRunner(sys, m, true, 16)
			if err != nil {
				t.Fatal(err)
			}
			sys.InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1})
			for call := 0; call < 2; call++ {
				got, st, err := r.Infer(images)
				if err != nil {
					t.Fatalf("call %d: Infer under faults: %v", call, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("call %d image %d: predicted %d, fault-free run predicted %d",
							call, i, got[i], want[i])
					}
				}
				if call == 0 && st.Retries == 0 {
					t.Error("no re-dispatches recorded; DPU 1 should have died mid-run")
				}
				if st.Images != len(images) {
					t.Errorf("call %d: stats cover %d images, want %d", call, st.Images, len(images))
				}
			}
		})
	}
}
