package ebnn

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
	"pimdnn/internal/mnist"
	"pimdnn/internal/trace"
)

// inferOutcome is everything a runner's two Infer calls may be observed
// by besides their predictions, which runInfer checks itself.
type inferOutcome struct {
	Stats     [2]BatchStats
	DPUCycles []uint64
	Xfer      host.XferStats
	DPUTime   time.Duration
	Down      int
}

// TestInferInvariance is the eBNN runner's invariance table: 64, 150
// and 1,000 images on 4 DPUs (one full wave; two and a ragged 22-image
// one; fifteen and a 40-image one), with the fixed 16 tasklets or the
// planner's count, clean, with a DPU dying after its first launch and
// under transient transfer and trap faults, with telemetry off, a
// metrics registry wired before the runner is built or a request span
// installed, at GOMAXPROCS 1, 2 and 4 — two Infer calls per runner, so
// the second starts from the first's down set. Every prediction must
// equal the host LUT path's, batches are re-dispatched exactly when a
// plan is armed, and both calls' BatchStats, per-DPU cycles, all of
// TransferStats, the DPU clock and the down count must equal the
// telemetry-off / GOMAXPROCS=1 row. At 1,000 images (63 shards, above
// the host's sharding threshold) the classifier runs on pool workers
// at GOMAXPROCS 2 and 4, so equal predictions there are the statement
// that their order changes nothing.
func TestInferInvariance(t *testing.T) {
	m, ds := trainForKernel(t)
	lut := m.BuildLUT()
	faults := []struct {
		name string
		plan *dpu.FaultPlan
	}{
		{"clean", nil},
		// Seed 1 dooms DPU 1; it finishes its first launch, then dies.
		{"dead-after-launch", &dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1}},
		{"transient", &dpu.FaultPlan{Seed: 3, TransferProb: 0.1, TrapProb: 0.08}},
	}
	for _, n := range []int{64, 150, 1000} {
		images := make([]mnist.Image, n)
		want := make([]int, n)
		for i := range images {
			images[i] = ds.Test[i%len(ds.Test)]
			want[i] = m.PredictFeatures(m.FeaturesViaLUT(&images[i], lut))
		}
		for _, planned := range []bool{false, true} {
			for _, fc := range faults {
				t.Run(fmt.Sprintf("%d/planned=%v/%s", n, planned, fc.name), func(t *testing.T) {
					var base inferOutcome
					for _, tel := range []string{"off", "metrics", "tracing"} {
						for _, procs := range []int{1, 2, 4} {
							got := runInfer(t, m, images, want, planned, fc.plan, tel, procs)
							if tel == "off" && procs == 1 {
								base = got
								if retries := got.Stats[0].Retries + got.Stats[1].Retries; (fc.plan != nil) != (retries > 0) {
									t.Errorf("fault plan %+v but %d re-dispatches", fc.plan, retries)
								}
								continue
							}
							if !reflect.DeepEqual(got, base) {
								t.Errorf("telemetry %s GOMAXPROCS=%d diverges:\n got %+v %+v %v\nwant %+v %+v %v",
									tel, procs, got.Stats, got.Xfer, got.DPUCycles, base.Stats, base.Xfer, base.DPUCycles)
							}
						}
					}
				})
			}
		}
	}
}

// runInfer classifies images twice on a fresh 4-DPU runner at procs
// cores, checking every prediction against want.
func runInfer(t *testing.T, m *Model, images []mnist.Image, want []int, planned bool, plan *dpu.FaultPlan, tel string, procs int) inferOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sys, err := host.NewSystem(4, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if tel == "metrics" {
		sys.EnableMetrics(metrics.NewRegistry())
	}
	var r *Runner
	if planned {
		r, _, err = NewPlannedRunner(sys, m, true, nil)
	} else {
		r, err = NewRunner(sys, m, true, 16)
	}
	if err != nil {
		t.Fatal(err)
	}
	if tel == "tracing" {
		r.SetTraceSpan(trace.NewTracer(trace.TracerConfig{}).StartTrace("infer"))
	}
	if plan != nil {
		sys.InjectFaults(*plan)
	}
	var o inferOutcome
	for call := range o.Stats {
		preds, st, err := r.Infer(images)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d call %d: %v", procs, call, err)
		}
		if !reflect.DeepEqual(preds, want) || st.Images != len(images) {
			t.Fatalf("GOMAXPROCS=%d call %d: predictions or image count (%d) differ from the host LUT path", procs, call, st.Images)
		}
		o.Stats[call] = st
	}
	o.Xfer, o.DPUTime, o.Down = sys.TransferStats(), sys.DPUTime(), r.eng.NumDown()
	o.DPUCycles = make([]uint64, sys.NumDPUs())
	for i := range o.DPUCycles {
		o.DPUCycles[i] = sys.DPU(i).TotalCycles()
	}
	return o
}

// A runner must stay correct across successive Infer calls of different
// sizes on the same system: leftover staging or result-buffer state from
// a larger earlier call must not leak into a smaller later one.
func TestInferPipelinedRepeatedCalls(t *testing.T) {
	m, ds := trainForKernel(t)
	sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r, err := NewRunner(sys, m, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	lut := m.BuildLUT()
	for _, n := range []int{32, 7, 20} {
		preds, _, err := r.Infer(ds.Test[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			want := m.PredictFeatures(m.FeaturesViaLUT(&ds.Test[i], lut))
			if preds[i] != want {
				t.Errorf("n=%d image %d: DPU %d, host %d", n, i, preds[i], want)
			}
		}
	}
}
