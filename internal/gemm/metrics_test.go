package gemm

import (
	"reflect"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/metrics"
)

// runWithTelemetry runs one multi-wave Multiply on a fresh system,
// optionally with a registry wired, and returns the product and stats.
func runWithTelemetry(t testing.TB, reg *metrics.Registry) ([]int16, Stats) {
	const m, n, k = 24, 40, 18
	a, b := pipelineProblem(m, n, k)
	sys := newSystem(t, 8, dpu.O3)
	if reg != nil {
		sys.EnableMetrics(reg)
	}
	r := mustRunner(t, sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 16})
	c, st, err := r.Multiply(m, n, k, 3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

// TestMetricsAccountingConsistency cross-checks the instruments against
// the Stats the runner already reports.
func TestMetricsAccountingConsistency(t *testing.T) {
	reg := metrics.NewRegistry()
	_, st := runWithTelemetry(t, reg)
	s := reg.Snapshot()
	get := func(name string) uint64 {
		var v uint64
		for _, c := range s.Counters {
			if c.Name == name {
				v += c.Value
			}
		}
		return v
	}
	if got := get("pim_exec_cycles_total"); got != st.Cycles {
		t.Errorf("pim_exec_cycles_total = %d, Stats.Cycles = %d", got, st.Cycles)
	}
	if got := get("pim_exec_waves_total"); got != uint64(st.Waves) {
		t.Errorf("pim_exec_waves_total = %d, Stats.Waves = %d", got, st.Waves)
	}
	if got := get("pim_exec_retries_total"); got != uint64(st.Retries) {
		t.Errorf("pim_exec_retries_total = %d, Stats.Retries = %d", got, st.Retries)
	}
	if get("pim_host_xfer_bytes_total") == 0 {
		t.Error("no transfer bytes metered")
	}
	if get("pim_dpu_launches_total") == 0 {
		t.Error("no launches metered")
	}

	// The per-DPU memory counters and fired faults of one row Multiply
	// and one MultiplyBatch on 4 DPUs under the transient plan, pinned.
	a, bs, _ := batchProblem(t, 6, 70, 18, 4, 1)
	r := newBatchRunner(t, 4, 6, RunnerConfig{MaxK: 18, MaxN: 70, Tasklets: 8, TileCols: 16})
	reg = metrics.NewRegistry()
	r.sys.EnableMetrics(reg)
	r.sys.InjectFaults(transientPlan)
	_, _, err := r.Multiply(6, 70, 18, 1, a, bs[0])
	if _, _, errB := r.MultiplyBatch(6, 70, 18, 1, a, bs); err != nil || errB != nil {
		t.Fatal(err, errB)
	}
	perDPU := map[string][]uint64{}
	for _, c := range reg.Snapshot().Counters {
		perDPU[c.Name] = append(perDPU[c.Name], c.Value)
	}
	for name, want := range map[string][4]uint64{
		"pim_dpu_mram_bytes_total":    {32640, 32640, 26864, 26904},
		"pim_dpu_mram_accesses_total": {897, 897, 702, 703},
		"pim_dpu_wram_bytes_total":    {25992, 25992, 20440, 20440},
		"pim_dpu_wram_accesses_total": {36390, 36390, 28198, 28198},
		"pim_dpu_faults_total":        {3, 4, 1, 1},
	} {
		if got := perDPU[name]; !reflect.DeepEqual(got, want[:]) {
			t.Errorf("%s per DPU = %v, want %v", name, got, want)
		}
	}
}

// TestMetricsZeroExtraAllocs pins that telemetry adds no allocations to
// the Multiply hot path: a fully instrumented run allocates exactly
// what an uninstrumented run does (the result slice and launch
// bookkeeping), enabled or disabled.
func TestMetricsZeroExtraAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector perturbs AllocsPerRun by detector-internal allocations")
	}
	const m, n, k = 2, 96, 64
	a, b := pipelineProblem(m, n, k)
	mk := func(reg *metrics.Registry) *Runner {
		sys := newSystem(t, 2, dpu.O3)
		if reg != nil {
			sys.EnableMetrics(reg)
		}
		r := mustRunner(t, sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16})
		// Warm reusable buffers so both measurements are steady-state.
		if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
			t.Fatal(err)
		}
		return r
	}
	rOff := mk(nil)
	rOn := mk(metrics.NewRegistry())
	run := func(r *Runner) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := run(rOff), run(rOn)
	if on > off {
		t.Errorf("telemetry added allocations: %.1f enabled vs %.1f disabled per Multiply", on, off)
	}
}
