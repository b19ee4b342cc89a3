package ebnn

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
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
// planner's count, at both dispatch depths, clean, with a DPU dying
// after its first launch and under transient transfer and trap faults,
// with telemetry off, a metrics registry wired before the runner is
// built or a request span installed, at GOMAXPROCS 1, 2 and 4 — two
// Infer calls per runner, so the second starts from the first's down
// set. Every prediction must equal the host LUT path's, batches are
// re-dispatched exactly when a plan is armed, and both calls'
// BatchStats, per-DPU cycles, all of TransferStats, the DPU clock and
// the down count must equal the depth-1 / telemetry-off / GOMAXPROCS=1
// row. The exception is internal/exec's TestRunInvariance one: under
// the transient plan a multi-wave call at depth 2 draws each DPU's fault
// stream in another order, so there they must equal depth 2's
// telemetry-off GOMAXPROCS=1 row.
func TestInferInvariance(t *testing.T) {
	m, ds := trainForKernel(t)
	lut := m.BuildLUT()
	faults := []struct {
		name          string
		plan          *dpu.FaultPlan
		probabilistic bool
	}{
		{"clean", nil, false},
		// Seed 1 dooms DPU 1; it finishes its first launch, then dies.
		{"dead-after-launch", &dpu.FaultPlan{Seed: 1, DeadFrac: 0.3, DeadAfterLaunches: 1}, false},
		{"transient", &dpu.FaultPlan{Seed: 3, TransferProb: 0.1, TrapProb: 0.08}, true},
	}
	modes := []host.PipelineMode{host.PipelineOff, host.PipelineOn}
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
					for depth, mode := range modes {
						var first inferOutcome
						for _, tel := range []string{"off", "metrics", "tracing"} {
							for _, procs := range []int{1, 2, 4} {
								got := runInfer(t, m, images, want, planned, fc.plan, mode, tel, procs)
								if tel == "off" && procs == 1 {
									first = got
									if depth == 0 {
										base = got
										if retries := got.Stats[0].Retries + got.Stats[1].Retries; (fc.plan != nil) != (retries > 0) {
											t.Errorf("fault plan %+v but %d re-dispatches", fc.plan, retries)
										}
										continue
									}
								}
								want := base
								if fc.probabilistic && depth == 1 && got.Stats[0].Waves > 1 {
									want = first
								}
								if !reflect.DeepEqual(got, want) {
									t.Errorf("depth %d telemetry %s GOMAXPROCS=%d diverges:\n got %+v %+v %v\nwant %+v %+v %v",
										depth+1, tel, procs, got.Stats, got.Xfer, got.DPUCycles, want.Stats, want.Xfer, want.DPUCycles)
								}
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
func runInfer(t *testing.T, m *Model, images []mnist.Image, want []int, planned bool, plan *dpu.FaultPlan, mode host.PipelineMode, tel string, procs int) inferOutcome {
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
	r.Configure(exec.Config{Pipeline: mode})
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

// A pipelined runner must stay correct across successive Infer calls of
// different sizes on the same system: leftover slot state from a larger
// earlier call must not leak into a smaller later one.
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
	r.Configure(exec.Config{Pipeline: host.PipelineOn})
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
