// Kernel-granularity cost: the one statement of what each simulated DPU
// kernel charges. Where the chapter-5 model (model.go) works at MAC
// granularity across PIM architectures, the *Cost functions here are
// this simulator's own kernels' per-tasklet charges — Algorithm 2's
// per-k load/multiply/accumulate (§4.3.3), Eq 3.4's DMA transfers — as
// functions of the launch shape that emit into a Meter. The gemm and
// ebnn kernels charge exactly what these functions emit (into one
// dpu.CostBlock per tasklet, cached per launch shape in a dpu.CostCache)
// and otherwise only move data; the *Cycles functions evaluate the same
// functions with a tally and the pipeline law (dpu.PipelineCycles), so a
// planner can rank candidate mappings without running the simulator
// (internal/plan) and the prediction equals the simulated per-wave cycles
// by construction.
// The per-operation legacy kernels are the independent derivation these
// statements are held to; they are test code (legacy_test.go in
// internal/gemm and internal/ebnn), installed by the cost and
// differential tests there, and no shipped option selects them. Beside
// each cost function, a *Layout function states the kernel's DPU memory:
// what the runner allocates, and what the planner's tasklet cap fits.
package model

import "pimdnn/internal/dpu"

// Meter is the sink a kernel cost function emits into: n operations of
// one class, or n MRAM<->WRAM transfers of size bytes each. The kernels'
// cost caches emit into a *dpu.CostBlock and the planner into its tally.
type Meter interface {
	ChargeBulk(op dpu.Op, n uint64)
	ChargeDMA(n uint64, size int)
}

// KernelConfig selects the GEMM kernel variant and mapping parameters
// the *Cycles functions evaluate (gemm.RunnerConfig's cost-relevant
// subset).
type KernelConfig struct {
	Opt      dpu.OptLevel
	Tasklets int
	// TileCols is the tiled kernels' WRAM tile width (gemm
	// DefaultTileCols when the runner left it zero).
	TileCols int
	// Naive selects the thesis-faithful kernel with MRAM-resident ctmp.
	Naive bool
}

func pad8(n int) int { return (n + 7) &^ 7 }

// stageCost emits count stagings of one k-element int16 A row from MRAM
// into WRAM: the row padded to the DMA granularity, split into transfers
// of at most the DMA limit.
func stageCost(m Meter, count uint64, k int) {
	bytes := pad8(k * 2)
	m.ChargeDMA(count*uint64(bytes/dpu.MaxDMATransfer), dpu.MaxDMATransfer)
	if rest := bytes % dpu.MaxDMATransfer; rest != 0 {
		m.ChargeDMA(count, rest)
	}
}

// tileCost emits count executions of one cols-wide output tile of the
// tiled kernels: zero ctmp, k iterations of B-chunk DMA plus
// load/multiply/accumulate/store per element (Algorithm 2 line 7), the
// rescale-clamp output pass (lines 8-10) and the C write-back DMA.
func tileCost(m Meter, count uint64, cols, k int) {
	if count == 0 {
		return
	}
	c := count * uint64(cols)
	kc := c * uint64(k)
	m.ChargeBulk(dpu.OpStore, kc+2*c)
	m.ChargeBulk(dpu.OpLoad, 2*kc)
	m.ChargeBulk(dpu.OpMul16, kc)
	m.ChargeBulk(dpu.OpAddInt, kc)
	m.ChargeBulk(dpu.OpShift, c)
	m.ChargeBulk(dpu.OpBranch, c)
	m.ChargeDMA(count*uint64(k+1), pad8(cols*2))
}

// GEMMRowCost emits what tasklet t of `tasklets` charges in one launch
// of the tiled row kernel (gemm.Runner's default: one DPU computing one
// n-wide output row over k): the four parameter loads, one A load and
// one APART multiply per k (Algorithm 2 line 5), the A-row staging on
// tasklet 0, and the column tiles t, t+tasklets, ... it owns.
func GEMMRowCost(m Meter, t, tasklets, n, k, tileCols int) {
	m.ChargeBulk(dpu.OpLoad, uint64(k+4))
	m.ChargeBulk(dpu.OpMul16, uint64(k))
	if t == 0 {
		stageCost(m, 1, k)
	}
	tiles := (n + tileCols - 1) / tileCols
	if t >= tiles {
		return
	}
	owned := uint64((tiles - t + tasklets - 1) / tasklets)
	// The last tile is the only one that can be narrower; it belongs to
	// tasklet (tiles-1) mod tasklets.
	if tail := n - (tiles-1)*tileCols; tail != tileCols && (tiles-1)%tasklets == t {
		tileCost(m, 1, tail, k)
		owned--
	}
	tileCost(m, owned, tileCols, k)
}

// GEMMNaiveCost is GEMMRowCost for the thesis-faithful kernel (§4.2.3):
// tasklet t owns output columns t, t+tasklets, ... and ctmp lives in
// MRAM, so every multiply-accumulate pays three 8-byte MRAM round trips
// (ctmp read, B read, ctmp write; §4.3.3) besides the MAC and index
// arithmetic, and the output pass one more round trip per column.
func GEMMNaiveCost(m Meter, t, tasklets, n, k int) {
	m.ChargeBulk(dpu.OpLoad, 4)
	if t == 0 {
		stageCost(m, 1, k)
	}
	cols := uint64((n - t + tasklets - 1) / tasklets)
	if cols == 0 {
		return
	}
	kc := cols * uint64(k)
	m.ChargeBulk(dpu.OpLoad, uint64(k))
	m.ChargeBulk(dpu.OpMul16, uint64(k)+kc)
	m.ChargeBulk(dpu.OpAddInt, 2*kc)
	m.ChargeBulk(dpu.OpShift, cols)
	m.ChargeBulk(dpu.OpBranch, cols)
	m.ChargeDMA(3*kc+2*cols, 8)
}

// GEMMBatchCost emits what tasklet t charges in one launch of the
// image-per-DPU kernel (gemm.Runner.batchKernel): one DPU computing the
// whole rows×n product for its resident B matrix. Work units are
// (row, tile) pairs claimed round-robin; a tasklet re-stages the A row
// (DMA, k loads, k APART multiplies) whenever its next unit lands on a
// new row.
func GEMMBatchCost(m Meter, t, tasklets, rows, n, k, tileCols int) {
	tiles := (n + tileCols - 1) / tileCols
	tail := n - (tiles-1)*tileCols
	var staged, full, narrow uint64
	last := -1
	for u := t; u < rows*tiles; u += tasklets {
		if row := u / tiles; row != last {
			staged++
			last = row
		}
		if u%tiles == tiles-1 && tail != tileCols {
			narrow++
		} else {
			full++
		}
	}
	// Five parameter loads (n, k, alpha, m, A base).
	m.ChargeBulk(dpu.OpLoad, 5+staged*uint64(k))
	m.ChargeBulk(dpu.OpMul16, staged*uint64(k))
	stageCost(m, staged, k)
	tileCost(m, full, tileCols, k)
	tileCost(m, narrow, tail, k)
}

// GEMMLayout is the gemm kernels' DPU memory for a runner bounded by
// maxK×maxN, with a tileCols-wide B/ctmp/C tile area (8 bytes a column)
// for each of `tasklets` tasklets. B and C rows sit at a stride padded
// to 4 columns, so every row base stays 8-byte aligned for DMA (§3.2's
// padding rule applied to the matrix layout). Rows, in order: the A row,
// B, the C row and ctmp in MRAM; the parameter block, the staged A row
// and the tiles in WRAM. When maxM > 0, the image-per-DPU mapping's rows
// follow: maxM A rows and C rows in MRAM, A rows at an 8-byte stride so
// per-row staging stays aligned for any K, then `slots` A-row cache
// slots in WRAM. The A rows are padded to at least a page, so they get
// pages of their own: A is broadcast every batch layer, and on a page
// the kernels write C into, each DPU would take a private copy of it.
func GEMMLayout(maxK, maxN, tileCols, tasklets, maxM, slots int) dpu.Layout {
	stride, aRow := int64((maxN+3)&^3), int64(pad8(maxK*2))
	l := dpu.Layout{
		{Name: "gemm_a_row", Kind: dpu.SymbolMRAM, Size: int64(maxK) * 2},
		{Name: "gemm_b", Kind: dpu.SymbolMRAM, Size: int64(maxK) * stride * 2},
		{Name: "gemm_c_row", Kind: dpu.SymbolMRAM, Size: stride * 2},
		{Name: "gemm_ctmp", Kind: dpu.SymbolMRAM, Size: stride * 4},
		{Name: "gemm_params", Kind: dpu.SymbolWRAM, Size: 24},
		{Name: "gemm_a_wram", Kind: dpu.SymbolWRAM, Size: int64(maxK) * 2},
		{Name: "gemm_tiles", Kind: dpu.SymbolWRAM, Size: int64(tasklets * tileCols * 8)},
	}
	if maxM > 0 {
		l = append(l,
			dpu.Symbol{Name: "gemm_a_full", Kind: dpu.SymbolMRAM, Size: max(int64(maxM)*aRow, dpu.MRAMPageSize)},
			dpu.Symbol{Name: "gemm_c_full", Kind: dpu.SymbolMRAM, Size: int64(maxM) * stride * 2},
			dpu.Symbol{Name: "gemm_a_cache", Kind: dpu.SymbolWRAM, Size: int64(slots) * aRow})
	}
	return l
}

// EBNNShape carries the eBNN workload's cost-relevant geometry so this
// package needs no dependency on internal/ebnn (which imports plan's
// consumers). ebnn.CostShape builds it from the model constants.
type EBNNShape struct {
	// Filters is the binary filter count (model.F).
	Filters int
	// Cells is the pooled outputs per filter (ebnn.PoolCells).
	Cells int
	// Side is the image row count loaded per image (mnist.Side).
	Side int
	// PackedBytes and ResultBytes are the per-image DMA payloads.
	PackedBytes, ResultBytes int
	// LUTBytes is the LUT's size, tasklet 0's staging DMA under UseLUT.
	LUTBytes int
	// UseLUT selects the §4.1.4 LUT activation over software float.
	UseLUT bool
}

// EBNNCost emits what tasklet t charges in one launch of the §4.1.3
// eBNN kernel with `images` images resident on the DPU: tasklet 0 stages
// the LUT (§4.1.4); every tasklet reads the image count and unpacks the
// filters (and, without the LUT, folds BN-BinAct into a float threshold
// per filter, Fig 4.2a); then per image t, t+tasklets, ... the packed
// pixels come in by DMA, each pooled cell and filter costs 4 conv
// windows of 6 shifts and 9 logic ops plus the max-pool compares and
// the activation (LUT index and load, or int-to-float and compare), and
// the activation bytes go out by DMA.
func EBNNCost(m Meter, t, tasklets, images int, sh EBNNShape) {
	fn := uint64(sh.Filters)
	if sh.UseLUT && t == 0 {
		m.ChargeDMA(1, sh.LUTBytes)
	}
	m.ChargeBulk(dpu.OpLoad, 1+fn) // image count + filter words
	m.ChargeBulk(dpu.OpLogic, 3*fn)
	m.ChargeBulk(dpu.OpShift, 2*fn)
	if !sh.UseLUT {
		m.ChargeBulk(dpu.OpLoad, 5*fn) // BN parameters
		m.ChargeBulk(dpu.OpFDiv, 2*fn) // scale, correction
		m.ChargeBulk(dpu.OpFSub, 2*fn) // difference, threshold
	}
	if t >= images {
		return
	}
	imgs := uint64((images - t + tasklets - 1) / tasklets)
	acts := imgs * uint64(sh.Cells) * fn
	m.ChargeDMA(imgs, sh.PackedBytes)
	m.ChargeBulk(dpu.OpMul16, 2*imgs) // image and result MRAM offsets
	m.ChargeBulk(dpu.OpLoad, imgs*uint64(sh.Side))
	m.ChargeBulk(dpu.OpShift, 25*acts)
	m.ChargeBulk(dpu.OpLogic, 37*acts)
	m.ChargeBulk(dpu.OpSubInt, 4*acts)
	m.ChargeBulk(dpu.OpBranch, 4*acts)
	if sh.UseLUT {
		m.ChargeBulk(dpu.OpAddInt, 2*acts)
		m.ChargeBulk(dpu.OpMul16, acts)
		m.ChargeBulk(dpu.OpLoad, acts)
	} else {
		m.ChargeBulk(dpu.OpFloatFromInt, acts)
		m.ChargeBulk(dpu.OpFCmp, acts)
	}
	m.ChargeBulk(dpu.OpStore, imgs*uint64(sh.Cells)) // result bytes
	m.ChargeDMA(imgs, sh.ResultBytes)
}

// EBNNLayout is the eBNN kernel's DPU memory (§4.1.3) for sh's geometry
// and `batch` images per DPU. Rows, in order: the packed images, their
// results and the LUT in MRAM; the image count, the filter words (up to
// 8 of 16 bits), the BN parameters (5 floats a filter) and the scratch
// in WRAM: an image and a result slot for every tasklet the hardware
// has, then the LUT's staging area.
func EBNNLayout(sh EBNNShape, batch int) dpu.Layout {
	return dpu.Layout{
		{Name: "ebnn_images", Kind: dpu.SymbolMRAM, Size: int64(batch * sh.PackedBytes)},
		{Name: "ebnn_results", Kind: dpu.SymbolMRAM, Size: int64(batch * sh.ResultBytes)},
		{Name: "ebnn_lut_mram", Kind: dpu.SymbolMRAM, Size: int64(sh.LUTBytes)},
		{Name: "ebnn_nimages", Kind: dpu.SymbolWRAM, Size: 8},
		{Name: "ebnn_filters", Kind: dpu.SymbolWRAM, Size: 16},
		{Name: "ebnn_bn", Kind: dpu.SymbolWRAM, Size: int64(sh.Filters * 5 * 4)},
		{Name: "ebnn_scratch", Kind: dpu.SymbolWRAM, Size: int64(dpu.MaxTasklets*(sh.PackedBytes+sh.ResultBytes) + sh.LUTBytes)},
	}
}

// tally is the planner-side Meter: it prices what a cost function emits
// at one optimization level into the live tasklet's slot and DMA totals.
type tally struct {
	opt dpu.OptLevel
	cur *dpu.TaskletBreakdown
	per [dpu.MaxTasklets]dpu.TaskletBreakdown
}

func (c *tally) ChargeBulk(op dpu.Op, n uint64) { c.cur.IssueSlots += n * dpu.OpSlots(op, c.opt) }
func (c *tally) ChargeDMA(n uint64, size int)   { c.cur.DMACycles += n * dpu.DMACost(size) }

// Tally evaluates a per-tasklet cost function for every tasklet of a
// launch at one optimization level: the breakdown dpu.Stats.PerTasklet
// reports for a launch of the kernel the function states.
func Tally(opt dpu.OptLevel, tasklets int, cost func(m Meter, t int)) []dpu.TaskletBreakdown {
	c := &tally{opt: opt}
	for t := 0; t < tasklets; t++ {
		c.cur = &c.per[t]
		cost(c, t)
	}
	return c.per[:tasklets]
}

// GEMMRowCycles is the per-DPU cycle count of one wave of the Fig 4.6
// row-per-DPU mapping: one DPU computing one n-wide output row over k
// with gemm.Runner's tiled or naive kernel.
func GEMMRowCycles(n, k int, kc KernelConfig) uint64 {
	return dpu.PipelineCycles(Tally(kc.Opt, kc.Tasklets, func(m Meter, t int) {
		if kc.Naive {
			GEMMNaiveCost(m, t, kc.Tasklets, n, k)
		} else {
			GEMMRowCost(m, t, kc.Tasklets, n, k, kc.TileCols)
		}
	}))
}

// GEMMBatchCycles is the per-DPU cycle count of the image-per-DPU
// mapping: one DPU computing the whole m×n product.
func GEMMBatchCycles(m, n, k int, kc KernelConfig) uint64 {
	return dpu.PipelineCycles(Tally(kc.Opt, kc.Tasklets, func(mt Meter, t int) {
		GEMMBatchCost(mt, t, kc.Tasklets, m, n, k, kc.TileCols)
	}))
}

// EBNNWaveCycles is the per-DPU cycle count of one eBNN wave with
// `images` images resident on the DPU (up to ebnn.BatchSize).
func EBNNWaveCycles(sh EBNNShape, images, tasklets int, opt dpu.OptLevel) uint64 {
	return dpu.PipelineCycles(Tally(opt, tasklets, func(m Meter, t int) {
		EBNNCost(m, t, tasklets, images, sh)
	}))
}
