package gemm

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/host"
)

// TestMultiplyPipelinedMatchesSync: the pipelined (one wave in flight)
// Multiply must be indistinguishable from the synchronous loop in
// everything but wall-clock — identical results and identical
// simulated-time statistics, here on a partial final wave (11 rows on 4
// DPUs: two full waves plus a 3-row one).
func TestMultiplyPipelinedMatchesSync(t *testing.T) {
	const m, n, k = 11, 40, 24
	a, b := pipelineProblem(m, n, k)
	run := func(mode host.PipelineMode) ([]int16, Stats) {
		sys, err := host.NewSystem(4, host.DefaultConfig(dpu.O3))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		r, err := NewRunner(sys, RunnerConfig{
			MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16, Exec: exec.Config{Pipeline: mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		c, st, err := r.Multiply(m, n, k, 3, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c, st
	}
	cSync, stSync := run(host.PipelineOff)
	cPipe, stPipe := run(host.PipelineOn)
	for i := range cSync {
		if cSync[i] != cPipe[i] {
			t.Fatalf("element %d: sync %d, pipelined %d", i, cSync[i], cPipe[i])
		}
	}
	if stSync != stPipe {
		t.Errorf("stats diverge: sync %+v, pipelined %+v", stSync, stPipe)
	}
}

// A multi-call sequence on one pipelined runner: later calls must not
// observe stale in-flight state from earlier ones.
func TestMultiplyPipelinedRepeatedCalls(t *testing.T) {
	sys, err := host.NewSystem(2, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const n, k = 16, 8
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 2, TileCols: 8, Exec: exec.Config{Pipeline: host.PipelineOn}})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		m := 3 + call*2
		a, b := pipelineProblem(m, n, k)
		got, _, err := r.Multiply(m, n, k, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(m, n, k, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d element %d: got %d want %d", call, i, got[i], want[i])
			}
		}
	}
}
