package gemm

import (
	"fmt"
	"reflect"
	"testing"

	"pimdnn/internal/dpu"
)

// Differential harness for block-level cycle accounting: every GEMM
// kernel variant (tiled, naive, batch) must be bit-identical between the
// legacy per-operation kernels (legacy_test.go, installLegacy) and the
// block-charged kernels the runner ships — same outputs, same simulated
// cycles, same per-DPU clocks, same subroutine profiles.

// diffRun is one side's observable state after a GEMM workload.
type diffRun struct {
	out    []int16
	outs   [][]int16
	st     Stats
	cycles []uint64 // cumulative per-DPU clock
	prof   map[string]uint64
}

func runDifferential(t *testing.T, opt dpu.OptLevel, legacy bool,
	workload func(t *testing.T, r *Runner) ([]int16, [][]int16, Stats), cfgMod func(*RunnerConfig)) diffRun {
	t.Helper()
	const m, n, k = 24, 40, 18
	sys := newSystem(t, 8, opt)
	cfg := RunnerConfig{MaxK: k, MaxN: n, Tasklets: 8, TileCols: 16}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	r := mustRunner(t, sys, cfg)
	if legacy {
		r.installLegacy()
	}
	out, outs, st := workload(t, r)
	cyc := make([]uint64, sys.NumDPUs())
	for i := range cyc {
		cyc[i] = sys.DPU(i).TotalCycles()
	}
	return diffRun{out: out, outs: outs, st: st, cycles: cyc, prof: sys.Profile().Snapshot()}
}

func compareDiffRuns(t *testing.T, leg, blk diffRun) {
	t.Helper()
	if !reflect.DeepEqual(leg.out, blk.out) {
		t.Error("outputs diverge between legacy and block charging")
	}
	if !reflect.DeepEqual(leg.outs, blk.outs) {
		t.Error("batch outputs diverge between legacy and block charging")
	}
	if leg.st != blk.st {
		t.Errorf("stats diverge:\nlegacy: %+v\nblock:  %+v", leg.st, blk.st)
	}
	if !reflect.DeepEqual(leg.cycles, blk.cycles) {
		t.Errorf("per-DPU cycle counts diverge:\nlegacy: %v\nblock:  %v", leg.cycles, blk.cycles)
	}
	if !reflect.DeepEqual(leg.prof, blk.prof) {
		t.Errorf("subroutine profiles diverge:\nlegacy: %v\nblock:  %v", leg.prof, blk.prof)
	}
}

// TestGEMMBlockChargingParity runs each kernel variant with legacy and
// block charging on identically configured systems and requires every
// observable — products, engine stats, per-DPU clocks, and profiles —
// to match exactly across optimization levels.
func TestGEMMBlockChargingParity(t *testing.T) {
	const m, n, k = 24, 40, 18
	a, b := pipelineProblem(m, n, k)

	tiled := func(t *testing.T, r *Runner) ([]int16, [][]int16, Stats) {
		c, st, err := r.Multiply(m, n, k, 3, a, b)
		if err != nil {
			t.Fatal(err)
		}
		// A second call exercises the warm-buffer path too.
		c2, st2, err := r.Multiply(m, n, k, 3, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, c2) || st.Cycles != st2.Cycles {
			t.Fatal("warm-path Multiply disagrees with cold path")
		}
		return c, nil, st
	}
	batch := func(t *testing.T, r *Runner) ([]int16, [][]int16, Stats) {
		if err := r.EnableBatch(m); err != nil {
			t.Fatal(err)
		}
		bs := make([][]int16, 5) // partial batch: 5 images on 8 DPUs
		for i := range bs {
			img := make([]int16, k*n)
			for j := range img {
				img[j] = int16((i*7 + j) % 11)
			}
			bs[i] = img
		}
		outs, st, err := r.MultiplyBatch(m, n, k, 2, a, bs)
		if err != nil {
			t.Fatal(err)
		}
		return nil, outs, st
	}

	cases := []struct {
		name     string
		cfgMod   func(*RunnerConfig)
		workload func(t *testing.T, r *Runner) ([]int16, [][]int16, Stats)
	}{
		{"tiled", nil, tiled},
		{"naive", func(c *RunnerConfig) { c.Naive = true }, tiled},
		{"batch", nil, batch},
	}
	for _, opt := range []dpu.OptLevel{dpu.O0, dpu.O3} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/O%d", tc.name, int(opt)), func(t *testing.T) {
				leg := runDifferential(t, opt, true, tc.workload, tc.cfgMod)
				blk := runDifferential(t, opt, false, tc.workload, tc.cfgMod)
				compareDiffRuns(t, leg, blk)
			})
		}
	}
}
