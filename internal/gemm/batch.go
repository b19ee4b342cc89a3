package gemm

import (
	"fmt"

	"pimdnn/internal/dpu"
	"pimdnn/internal/exec"
	"pimdnn/internal/tensor"
)

// Image-per-DPU mapping — the thesis's future-work alternative (§6.1):
// "squeeze as many YOLOv3 image inferences into a single DPU as possible
// in order to emulate the eBNN implementation multi-image per DPU method.
// Then the performance of this mapping would be compared to the current
// mapping." Here each DPU holds the full weight matrix A and one image's
// B matrix and computes the whole M×N product; different DPUs work on
// different images concurrently. MultiplyBatch implements it; Multiply
// remains the Fig 4.6 row-per-DPU mapping.

// EnableBatch adds the image-per-DPU mapping's buffers, sized for
// problems up to maxM rows: model.GEMMLayout's batch rows. The A-row
// cache gets a slot for each of the runner's tasklets, or as many as
// keep the whole layout fitting WRAM with every tasklet's stack at that
// width (dpu.Config.Fits); batch launches are then bounded by the slot
// count. A MaxK so large that not even one slot fits is an error — pass
// a smaller RunnerConfig.Tasklets to shrink the tile area instead. It
// must be called once, before the first MultiplyBatch.
func (r *Runner) EnableBatch(maxM int) error {
	if maxM < 1 {
		return fmt.Errorf("gemm: EnableBatch(%d): need at least one row", maxM)
	}
	if r.maxM != 0 {
		return fmt.Errorf("gemm: batch mode already enabled (maxM=%d)", r.maxM)
	}
	slots := r.cfg.Tasklets
	for slots > 0 && !r.sys.Config().DPU.Fits(r.layout(maxM, slots).WRAM(), r.cfg.Tasklets) {
		slots--
	}
	if slots < 1 {
		return fmt.Errorf("gemm: no WRAM left for a batch A-row cache slot (MaxK=%d, %d tasklets allocated)",
			r.cfg.MaxK, r.cfg.Tasklets)
	}
	l := r.layout(maxM, slots)
	refs, err := r.sys.Alloc(l[len(l)-3:]) // A, C (MRAM), the A-row cache (WRAM)
	if err != nil {
		return fmt.Errorf("gemm: %w", err)
	}
	r.maxM, r.batchAllocT = maxM, slots
	r.refAFull, r.refCFull = refs[0], refs[1]
	r.aFullOff, r.cFullOff, r.aCacheOff = refs[0].Offset(), refs[1].Offset(), refs[2].Offset()
	return nil
}

// growBytes returns buf resliced to n bytes, reallocating only when the
// capacity is insufficient. Contents are unspecified; callers overwrite.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// MultiplyBatch computes C_i = clamp((alpha·A·B_i)/32) for a batch of B
// matrices with the image-per-DPU mapping: B_i goes to DPU i and that DPU
// computes the entire product. The batch size must not exceed the system
// size; EnableBatch must have been called with maxM >= m.
func (r *Runner) MultiplyBatch(m, n, k int, alpha int16, a []int16, bs [][]int16) ([][]int16, Stats, error) {
	out := make([][]int16, len(bs))
	st, err := r.MultiplyBatchEach(m, n, k, alpha, a, bs, func(i int, c []int16) {
		out[i] = c
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// MultiplyBatchEach is MultiplyBatch delivering each image's freshly
// allocated product through each(i, c) as soon as it is decoded. Like
// MultiplyBatch it is an anonymous call (see Layer). each
// is called exactly once per image, on the host's worker pool when the
// wave fans out: concurrently for distinct images and in no particular
// order, so per-image post-processing (bias/activation in the YOLO
// batch path) runs on every host core. It may touch only image i's
// state.
func (r *Runner) MultiplyBatchEach(m, n, k int, alpha int16, a []int16, bs [][]int16, each func(i int, c []int16)) (Stats, error) {
	for i, b := range bs {
		if len(b) != k*n {
			return Stats{}, fmt.Errorf("gemm: B[%d] has %d elements, want %d", i, len(b), k*n)
		}
	}
	return r.MultiplyBatchFill(Layer{}, m, n, k, alpha, a, len(bs), func(i, first, count int, block []byte, blockStride int) {
		packRows(block, blockStride, bs[i][first*n:], count, n)
	}, func(int) []int16 { return make([]int16, m*n) }, each)
}

// MultiplyBatchFill is MultiplyBatchEach for layer l with the B
// operands produced in place instead of passed in: fill(i, first, count,
// block, blockStride) writes rows [first, first+count) of image i's K×N
// matrix straight into its DPU's MRAM, as little-endian int16, row
// first+r at byte r*blockStride (>= 2n; the runner then zeroes the
// padding columns), so a producer such as the YOLO batch path's im2col
// writes B once. fill covers an image's rows in order, page run by page
// run, and again in one run if the image is re-dispatched. Image i's
// product is decoded into c(i) (m·n elements) run by run as the gather
// reads it, and handed to each after its last row. fill, c and each run
// concurrently for distinct images, in no order, under the DPU's lock
// (an in-place exec.Stream's Run), so they must not call a DPU or System
// method. On a runner joined to a weight cache, a named l keeps its
// weight matrix resident under l.Key.
func (r *Runner) MultiplyBatchFill(l Layer, m, n, k int, alpha int16, a []int16, images int, fill func(i, first, count int, block []byte, blockStride int), c func(i int) []int16, each func(i int, c []int16)) (Stats, error) {
	var st Stats
	cl, err := r.begin(l, true, m, n, k, images, a, &st)
	if err != nil {
		return st, err
	}

	// Encode the weight matrix A at the padded row stride the kernel
	// stages from. The engine broadcasts it ahead of the wave, or skips
	// it for every DPU whose arena copy of a resident layer is current;
	// the kernel then stages A rows from the arena slot.
	aRowBytes := (k*2 + 7) &^ 7
	r.aFullStage = growBytes(r.aFullStage, m*aRowBytes)
	aBytes := r.aFullStage
	packRows(aBytes, aRowBytes, a, m, k)
	aRef, aOff, aBase := r.refAFull, int64(0), r.aFullOff
	if ent := cl.resident; ent != nil {
		aRef, aOff, aBase = ent.Ref(), ent.Off(), ent.Abs()
	}
	r.encodeParams(n, k, m, alpha, aBase)

	// Dispatch through the execution engine as one wave: A and the
	// params are broadcast, each B is filled row-stride padded in place
	// in MRAM ahead of the launch, and the wave's gather decodes runs of
	// C rows in place, both on the worker pool when their width or
	// predicted work pays for it (host.Wave's Work), with retry-and-remap
	// owned by the engine (internal/exec).
	stride := pad4(n)
	if cap(r.batchC) < images {
		r.batchC = make([][]int16, images)
	}
	cs := r.batchC[:images]
	w := &r.bws
	*w = batchWorkSet{images: images, tasklets: cl.tasklets, kernel: r.batchKernel, work: int64(m) * int64(n) * int64(k)}
	w.bcasts = [2]exec.Broadcast{{Ref: aRef, Off: aOff, Data: aBytes, Resident: cl.resident}, {Ref: r.refParams, Data: r.paramsBuf[:]}}
	w.in = [1]exec.Stream{{Ref: r.refB, Rows: k, RowBytes: stride * 2, Run: func(i, first, count int, block []byte, blockStride int) {
		fill(i, first, count, block, blockStride)
		clearPadding(block, count, n, stride)
	}}}
	w.out = exec.Stream{Ref: r.refCFull, Rows: m, RowBytes: stride * 2, Run: func(i, first, count int, block []byte, blockStride int) {
		if first == 0 {
			cs[i] = c(i)
		}
		for row := first; row < first+count; row++ {
			tensor.UnpackLE(cs[i][row*n:(row+1)*n], block[(row-first)*blockStride:])
		}
		if first+count == m {
			each(i, cs[i])
		}
	}}
	err = r.eng.Run(w, &st)
	r.end(&cl)
	// The runner keeps no caller's product or callback past the call.
	clear(cs)
	*w = batchWorkSet{}
	return st, err
}

// batchWorkSet adapts the image-per-DPU mapping to the execution
// engine: one shard per image in a single wave, A and the parameter
// block as broadcasts, and B and C as in-place streams, so it stages
// nothing of its own. An image's work is its m·n·k MACs.
type batchWorkSet struct {
	images, tasklets int
	kernel           dpu.KernelFunc
	work             int64
	bcasts           [2]exec.Broadcast
	in               [1]exec.Stream
	out              exec.Stream
}

func (w *batchWorkSet) Shards() int                    { return w.images }
func (w *batchWorkSet) Tasklets() int                  { return w.tasklets }
func (w *batchWorkSet) Kernel() dpu.KernelFunc         { return w.kernel }
func (w *batchWorkSet) Work() int64                    { return w.work }
func (w *batchWorkSet) Broadcasts() []exec.Broadcast   { return w.bcasts[:] }
func (w *batchWorkSet) Encode(_, _, _ int)             {}
func (w *batchWorkSet) Scatter(_, _ int) []exec.Stream { return w.in[:] }
func (w *batchWorkSet) Gather(_, _ int) exec.Stream    { return w.out }
func (w *batchWorkSet) Decode(_, _, _ int)             {}
