package gemm

import (
	"fmt"
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/model"
)

// The calibration report compares one number per wave (the slowest DPU's
// cycles), so a charge that lands on the wrong tasklet can hide behind
// the max. These tests hold every tasklet of every block kernel to the
// cost function — and to the legacy per-operation kernel, the
// independent derivation — on shapes that reach each branch of it.

const costTileCols = 16

// costShapes: a tail tile with more tasklets than tiles at 8+; an A row
// past the 2048-byte DMA limit (staging splits) with no tail; a single
// narrow tile with fewer columns than tasklets; m·tiles = 28 units, a
// multiple of no swept tasklet count above 2, with an odd k.
var costShapes = []struct{ m, n, k int }{
	{3, 40, 18},
	{2, 32, 1040},
	{5, 7, 5},
	{4, 100, 33},
}

const (
	costMaxM, costMaxN, costMaxK = 5, 100, 1040
	costMaxTasklets              = 24
)

// costRunner builds a one-DPU runner sized for every costShapes entry at
// every swept tasklet count, so one runner (and one cost cache) sees all
// of them.
func costRunner(t *testing.T, opt dpu.OptLevel, naive, legacy bool) *Runner {
	t.Helper()
	return costRunnerFor(t, opt, naive, legacy, costMaxTasklets)
}

// costRunnerFor is costRunner with WRAM allocated for the given tasklet
// count only.
func costRunnerFor(t *testing.T, opt dpu.OptLevel, naive, legacy bool, tasklets int) *Runner {
	t.Helper()
	sys := newSystem(t, 1, opt)
	r, err := NewRunner(sys, RunnerConfig{MaxK: costMaxK, MaxN: costMaxN, Tasklets: tasklets,
		TileCols: costTileCols, Naive: naive})
	if err != nil {
		t.Fatal(err)
	}
	if legacy {
		r.installLegacy()
	}
	if err := r.EnableBatch(costMaxM); err != nil {
		t.Fatal(err)
	}
	return r
}

// launchRaw writes a parameter block and launches the kernel on DPU 0.
func launchRaw(r *Runner, kernel dpu.KernelFunc, tasklets, n, k, m int, aoff int64) (dpu.Stats, error) {
	r.encodeParams(n, k, m, 3, aoff)
	d := r.sys.DPU(0)
	if _, err := d.Do(&dpu.Request{Scatter: dpu.Xfer{Kind: dpu.SymbolWRAM, Off: r.paramsOff, Buf: r.paramsBuf[:]}}); err != nil {
		return dpu.Stats{}, err
	}
	return d.Launch(tasklets, kernel)
}

func TestKernelsChargeTheCostFunction(t *testing.T) {
	kinds := []struct {
		name         string
		naive, batch bool
	}{{"tiled", false, false}, {"naive", true, false}, {"batch", false, true}}
	for _, kind := range kinds {
		for opt := dpu.O0; opt <= dpu.O3; opt++ {
			t.Run(fmt.Sprintf("%s/O%d", kind.name, int(opt)), func(t *testing.T) {
				blk := costRunner(t, opt, kind.naive, false)
				leg := costRunner(t, opt, kind.naive, true)
				kernels := func(r *Runner, legacy bool) (dpu.KernelFunc, int64) {
					if kind.batch {
						if legacy {
							return r.kernelBatchLegacy(), r.aFullOff
						}
						return r.blockKernel(true), r.aFullOff
					}
					return r.Kernel(), r.aOff
				}
				blkKernel, blkA := kernels(blk, false)
				legKernel, legA := kernels(leg, true)
				// Widest first: a cost cache that forgot the tasklet count
				// in its key would serve the 24-tasklet blocks to the rest.
				for _, T := range []int{24, 16, 11, 8, 2, 1} {
					for _, s := range costShapes {
						m := 0
						cost := func(mt model.Meter, tk int) {
							if kind.naive {
								model.GEMMNaiveCost(mt, tk, T, s.n, s.k)
							} else {
								model.GEMMRowCost(mt, tk, T, s.n, s.k, costTileCols)
							}
						}
						kc := model.KernelConfig{Opt: opt, Tasklets: T, TileCols: costTileCols, Naive: kind.naive}
						wantCycles := model.GEMMRowCycles(s.n, s.k, kc)
						if kind.batch {
							m = s.m
							cost = func(mt model.Meter, tk int) {
								model.GEMMBatchCost(mt, tk, T, s.m, s.n, s.k, costTileCols)
							}
							wantCycles = model.GEMMBatchCycles(s.m, s.n, s.k, kc)
						}
						id := fmt.Sprintf("T=%d %dx%dx%d", T, s.m, s.n, s.k)
						want := model.Tally(opt, T, cost)
						got, err := launchRaw(blk, blkKernel, T, s.n, s.k, m, blkA)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						ref, err := launchRaw(leg, legKernel, T, s.n, s.k, m, legA)
						if err != nil {
							t.Fatalf("%s: legacy: %v", id, err)
						}
						for tk := 0; tk < T; tk++ {
							if got.PerTasklet[tk] != want[tk] {
								t.Errorf("%s: tasklet %d charged %+v, cost function says %+v", id, tk, got.PerTasklet[tk], want[tk])
							}
							if ref.PerTasklet[tk] != want[tk] {
								t.Errorf("%s: tasklet %d: legacy kernel charged %+v, cost function says %+v", id, tk, ref.PerTasklet[tk], want[tk])
							}
						}
						if got.Cycles != wantCycles || ref.Cycles != wantCycles {
							t.Errorf("%s: %d cycles (legacy %d), evaluation says %d", id, got.Cycles, ref.Cycles, wantCycles)
						}
						if got.OpCounts != ref.OpCounts {
							t.Errorf("%s: instruction mix diverges from legacy:\nblock:  %v\nlegacy: %v", id, got.OpCounts, ref.OpCounts)
						}
					}
				}
			})
		}
	}
}

// TestKernelsRejectHostileParams: a parameter block the host did not
// write, or a launch wider than the WRAM slots the runner allocated (tile
// slots in row mode, A-row cache slots in batch mode — the staging the
// cost function models would land in stack space), must fail the launch
// with an error — never a panic, never a silent out-of-range access — on
// every block kernel.
func TestKernelsRejectHostileParams(t *testing.T) {
	const n, k, m = 40, 18, 3
	for _, kind := range []string{"tiled", "naive", "batch"} {
		t.Run(kind, func(t *testing.T) {
			r := costRunner(t, dpu.O3, kind == "naive", false)
			kernel, aoff, rows := r.Kernel(), r.aOff, 0
			// tight is the same runner with slots for 4 tasklets only.
			tight := costRunnerFor(t, dpu.O3, kind == "naive", false, 4)
			tightKernel := tight.Kernel()
			if kind == "batch" {
				kernel, aoff, rows = r.blockKernel(true), r.aFullOff, m
				tightKernel = tight.blockKernel(true)
			}
			if _, err := launchRaw(r, kernel, 8, n, k, rows, aoff); err != nil {
				t.Fatalf("well-formed block rejected: %v", err)
			}
			if _, err := launchRaw(tight, tightKernel, 4, n, k, rows, aoff); err != nil {
				t.Fatalf("well-formed launch at the allocated width rejected: %v", err)
			}
			mram := r.sys.Config().DPU.MRAMSize
			type block struct {
				name    string
				n, k, m int
				aoff    int64
			}
			bad := []block{
				{"A misaligned", n, k, rows, aoff + 4},
				{"A at end of MRAM", n, k, rows, mram},
				{"A straddling end of MRAM", n, k, rows, mram - 8},
				{"A negative", n, k, rows, -8},
				{"n zero", 0, k, rows, aoff},
				{"n negative", -1, k, rows, aoff},
				{"n over", costMaxN + 1, k, rows, aoff},
				{"k zero", n, 0, rows, aoff},
				{"k negative", n, -1, rows, aoff},
				{"k over", n, costMaxK + 1, rows, aoff},
			}
			if kind == "batch" {
				bad = append(bad,
					block{"m zero", n, k, 0, aoff},
					block{"m negative", n, k, -1, aoff},
					block{"m over", n, k, costMaxM + 1, aoff},
					block{"last A row past end of MRAM", n, k, rows, mram - 40})
			}
			for _, b := range bad {
				if _, err := launchRaw(r, kernel, 8, b.n, b.k, b.m, b.aoff); err == nil {
					t.Errorf("%s: launch succeeded", b.name)
				}
			}
			if _, err := launchRaw(tight, tightKernel, 8, n, k, rows, aoff); err == nil {
				t.Errorf("8 tasklets on WRAM slots for 4: launch succeeded")
			}
		})
	}
}
