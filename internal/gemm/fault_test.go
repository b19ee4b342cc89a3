package gemm

import (
	"fmt"
	"reflect"
	"testing"

	"pimdnn/internal/dpu"
)

// Seeded so that FaultPlan{Seed: 1, DeadFrac: 0.3} dooms DPUs 1 and 6 of
// an 8-DPU system (25% of the array) and DPU 1 of a 4-DPU system — a
// deterministic mid-run kill well above the 5% degradation target.
var deadPlan = dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1}

// transientPlan injects recoverable faults only: no DPU dies, but
// transfers and kernel launches fail at a rate that guarantees several
// faults across a multi-wave GEMM.
var transientPlan = dpu.FaultPlan{Seed: 2, TransferProb: 0.15, TrapProb: 0.1}

// TestMultiplyFaultRecovery: a Multiply over several waves must survive
// DPUs dying mid-run (and transient transfer/trap faults) by re-mapping
// the failed row shards onto survivors, with results bit-identical to
// the fault-free reference.
func TestMultiplyFaultRecovery(t *testing.T) {
	const m, n, k = 24, 40, 18
	a, b := pipelineProblem(m, n, k)
	want, err := Reference(m, n, k, 3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan dpu.FaultPlan
	}{
		{"dead", deadPlan},
		{"transient", transientPlan},
	}
	for _, p := range plans {
		t.Run(p.name+"/sync", func(t *testing.T) {
			sys := newSystem(t, 8, dpu.O3)
			r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16})
			if err != nil {
				t.Fatal(err)
			}
			sys.InjectFaults(p.plan)
			got, st, err := r.Multiply(m, n, k, 3, a, b)
			if err != nil {
				t.Fatalf("Multiply under %s faults: %v", p.name, err)
			}
			checkC(t, "degraded run", got, want)
			if st.Retries == 0 {
				t.Errorf("no re-dispatches recorded; the %s plan should have faulted", p.name)
			}
			// The degraded run is not free: retried shards add their
			// real cycles on top of the wave maxima.
			if st.Cycles == 0 || st.Seconds == 0 {
				t.Errorf("degraded run reported empty stats: %+v", st)
			}
		})
	}
}

// TestMultiplyFaultSecondCall: a runner whose DPUs died during one
// Multiply must keep working on the next call, re-dispatching the dead
// DPUs' shards without being handed stale broadcast data.
func TestMultiplyFaultSecondCall(t *testing.T) {
	const m, n, k = 16, 24, 12
	a, b := pipelineProblem(m, n, k)
	want, err := Reference(m, n, k, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, 8, dpu.O3)
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16})
	if err != nil {
		t.Fatal(err)
	}
	sys.InjectFaults(deadPlan)
	for call := 0; call < 3; call++ {
		got, _, err := r.Multiply(m, n, k, 1, a, b)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		checkC(t, fmt.Sprintf("call %d", call), got, want)
	}
}

// TestMultiplyBatchFaultRecovery: the image-per-DPU mapping must survive
// a DPU dying during the batch launch — its image is re-run on a
// survivor and every image's result stays bit-identical to the
// reference, including on repeated calls against the degraded array.
func TestMultiplyBatchFaultRecovery(t *testing.T) {
	const m, n, k = 6, 70, 18
	a, bs, want := batchProblem(t, m, n, k, 4, 1)
	t.Run("sync", func(t *testing.T) {
		r := newBatchRunner(t, 4, m, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 16})
		// Dooms DPU 1 of 4; it dies at its first batch launch.
		r.sys.InjectFaults(dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 0})
		for call := 0; call < 2; call++ {
			got, st, err := r.MultiplyBatch(m, n, k, 1, a, bs)
			if err != nil {
				t.Fatalf("call %d: MultiplyBatch under faults: %v", call, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d: products differ from the host reference", call)
			}
			if st.Retries == 0 {
				t.Errorf("call %d: no re-dispatches recorded; DPU 1 should have died", call)
			}
		}
	})
}
