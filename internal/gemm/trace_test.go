package gemm

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/trace"
)

// runWithTracing runs one multi-wave Multiply, or with batch one
// four-image MultiplyBatch, on a fresh 8-DPU system with a request span
// installed on the runner, and returns the stats and the completed
// trace.
func runWithTracing(t testing.TB, batch bool) (Stats, *trace.Trace) {
	const m, n, k = 24, 40, 18
	a, b := pipelineProblem(m, n, k)
	sys := newSystem(t, 8, dpu.O3)
	r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 16})
	if err == nil && batch {
		err = r.EnableBatch(m)
	}
	if err != nil {
		t.Fatal(err)
	}
	root := trace.NewTracer(trace.TracerConfig{}).StartTrace("test")
	r.SetTraceSpan(root)
	var st Stats
	if batch {
		_, st, err = r.MultiplyBatch(m, n, k, 3, a, [][]int16{b, b, b, b})
	} else {
		_, st, err = r.Multiply(m, n, k, 3, a, b)
	}
	if err != nil {
		t.Fatal(err)
	}
	r.SetTraceSpan(nil)
	root.End()
	return st, root.Trace()
}

// TestTracingSpanTree checks the shape a traced Multiply and a traced
// MultiplyBatch record: a gemm.multiply (gemm.batch) child under the
// request root, one engine wave span per wave under it and no other
// dispatch phase, and per-DPU kernel spans with cycle attributes. The
// sync and pipelined cells run the same Multiply: there is one wave at
// a time.
func TestTracingSpanTree(t *testing.T) {
	for _, name := range []string{"sync", "pipelined", "batch"} {
		t.Run(name, func(t *testing.T) {
			st, tr := runWithTracing(t, name == "batch")
			spans := tr.Spans()
			count := map[string]int{}
			var kernelCycles int64
			for _, n := range spans {
				count[n.Name]++
				if n.Name == "dpu_kernel" {
					for _, a := range n.Attrs {
						if a.Key == "cycles" {
							kernelCycles += a.Val
						}
					}
				}
			}
			call := "gemm.multiply"
			if name == "batch" {
				call = "gemm.batch"
			}
			if count[call] != 1 {
				t.Errorf("%s spans = %d, want 1 (have %v)", call, count[call], count)
			}
			if count["wave"] != st.Waves {
				t.Errorf("wave spans = %d, want one per wave (%d): %v", count["wave"], st.Waves, count)
			}
			for _, name := range []string{"scatter", "launch", "gather", "retry"} {
				if count[name] != 0 {
					t.Errorf("%d %s spans recorded by a fault-free dispatch: %v", count[name], name, count)
				}
			}
			if count["dpu_kernel"] == 0 {
				t.Errorf("no per-DPU kernel spans recorded: %v", count)
			}
			// Stats.Cycles is the simulated wall clock (max per wave); kernel
			// spans sum cycles across all 8 DPUs, so the total lands between
			// the wall clock and 8x it.
			if uint64(kernelCycles) < st.Cycles || uint64(kernelCycles) > st.Cycles*8 {
				t.Errorf("kernel span cycles %d implausible vs stats cycles %d", kernelCycles, st.Cycles)
			}
			// Structural integrity: every span's parent exists (or is the
			// root's 0).
			ids := map[trace.SpanID]bool{}
			for _, n := range spans {
				ids[n.ID] = true
			}
			for _, n := range spans {
				if n.Parent != 0 && !ids[n.Parent] {
					t.Errorf("span %q (id %d) has dangling parent %d", n.Name, n.ID, n.Parent)
				}
			}
		})
	}
}

// TestTracingZeroExtraAllocs pins the disabled-path contract: with no
// span installed, the instrumented Multiply hot path allocates exactly
// what it did before tracing existed.
func TestTracingZeroExtraAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector perturbs AllocsPerRun by detector-internal allocations")
	}
	const m, n, k = 2, 96, 64
	a, b := pipelineProblem(m, n, k)
	mk := func() *Runner {
		sys := newSystem(t, 2, dpu.O3)
		r, err := NewRunner(sys, RunnerConfig{MaxK: k, MaxN: n, Tasklets: 4, TileCols: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := mk()
	base := testing.AllocsPerRun(50, func() {
		if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
			t.Fatal(err)
		}
	})
	// Same runner, tracing armed and then disarmed: the disabled path
	// must return to the baseline exactly.
	tracer := trace.NewTracer(trace.TracerConfig{})
	root := tracer.StartTrace("warm")
	r.SetTraceSpan(root)
	if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
		t.Fatal(err)
	}
	r.SetTraceSpan(nil)
	root.End()
	off := testing.AllocsPerRun(50, func() {
		if _, _, err := r.Multiply(m, n, k, 1, a, b); err != nil {
			t.Fatal(err)
		}
	})
	if off > base {
		t.Errorf("disabled tracing allocates %.1f per Multiply, baseline %.1f — want zero extra", off, base)
	}
}
