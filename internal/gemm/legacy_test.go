package gemm

import (
	"encoding/binary"
	"fmt"

	"pimdnn/internal/dpu"
	"pimdnn/internal/fixed"
)

// The per-operation-charging kernels the block kernels replaced, kept as
// test code: they re-enact the DPU program tasklet by tasklet, chunk by
// chunk, charging each operation where it happens, and so are the
// independent derivation the one cost statement in internal/model (and
// the block kernels that charge it) is held to by cost_test.go,
// differential_test.go and network_differential_test.go.

// installLegacy makes the runner launch the legacy kernels, in row mode
// (Kernel, Multiply) and in batch mode (MultiplyBatch*), by replacing
// the kernel fields NewRunner filled with the block kernels.
func (r *Runner) installLegacy() {
	r.rowKernel = r.kernelLegacy()
	if r.cfg.Naive {
		r.rowKernel = r.kernelNaiveLegacy()
	}
	r.batchKernel = r.kernelBatchLegacy()
}

// legacyTile is the per-tasklet tile working set only the legacy kernels
// use (the block kernels' scratch is kernelScratch).
type legacyTile struct {
	ctmp  []int32 // tile accumulator (tileCols)
	chunk []byte  // B chunk staging (tileCols*2)
	out   []byte  // clamped C output chunk (tileCols*2)
}

func newLegacyTile(tileCols int) legacyTile {
	return legacyTile{
		ctmp:  make([]int32, tileCols),
		chunk: make([]byte, tileCols*2),
		out:   make([]byte, tileCols*2),
	}
}

// legacyParams loads the launch parameters the host wrote: N, K, alpha,
// the A offset and, in batch mode only (the row kernels do not load
// it), M; m is 1 in row mode.
func (r *Runner) legacyParams(t *dpu.Tasklet, batch bool) (n, k, m int, alpha int16, aoff int64, err error) {
	n = int(int32(t.Load32(r.paramsOff)))
	k = int(int32(t.Load32(r.paramsOff + 4)))
	alpha = int16(int32(t.Load32(r.paramsOff + 8)))
	m = 1
	if batch {
		m = int(int32(t.Load32(r.paramsOff + 12)))
	}
	aoff = int64(int32(t.Load32(r.paramsOff + 16)))
	if n < 1 || k < 1 || m < 1 || n > r.cfg.MaxN || k > r.cfg.MaxK || batch && m > r.maxM {
		err = fmt.Errorf("gemm legacy kernel: bad params M=%d N=%d K=%d", m, n, k)
	}
	return
}

// legacyStageA copies k int16 A values from MRAM to WRAM in DMA-sized
// chunks (the row padded to 8 bytes).
func legacyStageA(t *dpu.Tasklet, wram, mram int64, k int) {
	bytes := (k*2 + 7) &^ 7
	for off := 0; off < bytes; off += dpu.MaxDMATransfer {
		t.MRAMToWRAM(wram+int64(off), mram+int64(off), min(bytes-off, dpu.MaxDMATransfer))
	}
}

// legacyApart fills apart with alpha times each staged A value: one WRAM
// load and one 16-bit multiply per k (Algorithm 2 line 5).
func legacyApart(t *dpu.Tasklet, aRow []byte, alpha int16, apart []int32) {
	t.ChargeBulk(dpu.OpLoad, uint64(len(apart)))
	t.ChargeBulk(dpu.OpMul16, uint64(len(apart)))
	for i := range apart {
		apart[i] = int32(alpha) * int32(int16(binary.LittleEndian.Uint16(aRow[i*2:])))
	}
}

// legacyTilePass computes one C row tile, columns j0 onward of N = n,
// from the precomputed apart: it streams each B row chunk from MRAM
// (Eq 3.4 cost per transfer) into the tasklet's WRAM tile at tileBase,
// multiply-accumulates into ctmp with bulk charges per k-iteration, and
// writes the clamped outputs to MRAM at cOff.
func (r *Runner) legacyTilePass(t *dpu.Tasklet, lt legacyTile, apart []int32, n, j0 int, tileBase, cOff int64) {
	cols := min(n-j0, r.tileCols)
	chunkBytes := (cols*2 + 7) &^ 7
	ctmp := lt.ctmp[:cols]
	for i := range ctmp {
		ctmp[i] = 0
	}
	t.ChargeBulk(dpu.OpStore, uint64(cols)) // zeroing ctmp

	stride := pad4(n)
	for kk, ap := range apart {
		t.MRAMToWRAM(tileBase, r.bOff+int64(kk*stride+j0)*2, chunkBytes)
		bChunk := lt.chunk[:cols*2]
		copy(bChunk, t.WRAMWindow(tileBase, int64(len(bChunk))))
		for j := range ctmp {
			ctmp[j] += ap * int32(int16(binary.LittleEndian.Uint16(bChunk[j*2:])))
		}
		// Per element: load B, load ctmp, 16-bit multiply, accumulate,
		// store ctmp (Algorithm 2 line 7).
		t.ChargeBulk(dpu.OpLoad, uint64(2*cols))
		t.ChargeBulk(dpu.OpMul16, uint64(cols))
		t.ChargeBulk(dpu.OpAddInt, uint64(cols))
		t.ChargeBulk(dpu.OpStore, uint64(cols))
	}

	// Output rescale and clamp (Algorithm 2 lines 8-10), then write the
	// C chunk back to MRAM.
	out := lt.out[:chunkBytes]
	for j, v := range ctmp {
		binary.LittleEndian.PutUint16(out[j*2:], uint16(fixed.GEMMOutputClamp(v)))
	}
	clear(out[cols*2:])                      // the padding tail stays deterministic
	t.ChargeBulk(dpu.OpShift, uint64(cols))  // /32
	t.ChargeBulk(dpu.OpBranch, uint64(cols)) // clamp compare
	t.ChargeBulk(dpu.OpStore, uint64(cols))
	copy(t.WRAMWindow(tileBase, int64(len(out))), out)
	t.WRAMToMRAM(cOff, tileBase, chunkBytes)
}

// kernelLegacy is the per-operation-charging tiled kernel the block
// kernel replaced: tasklet 0 stages the A row, and each tasklet runs
// legacyTilePass over its strided tiles.
func (r *Runner) kernelLegacy() dpu.KernelFunc {
	return func(t *dpu.Tasklet) error {
		n, k, _, alpha, aoff, err := r.legacyParams(t, false)
		if err != nil {
			return err
		}
		sc := r.getScratch()
		defer r.scratch.Put(sc)
		lt := newLegacyTile(r.tileCols)

		// Tasklet 0 stages the A row into WRAM; later tasklets (run in
		// ID order) read it shared.
		if t.ID() == 0 {
			legacyStageA(t, r.aWRAM, aoff, k)
		}
		aRow := sc.aRow[:k*2]
		copy(aRow, t.WRAMWindow(r.aWRAM, int64(len(aRow))))
		apart := make([]int32, k)
		legacyApart(t, aRow, alpha, apart)

		tileBase := r.tileOff + int64(t.ID())*int64(r.tileCols)*8
		for tile := t.ID(); tile*r.tileCols < n; tile += t.Count() {
			j0 := tile * r.tileCols
			r.legacyTilePass(t, lt, apart, n, j0, tileBase, r.cOff+int64(j0*2))
		}
		return nil
	}
}

// kernelNaiveLegacy is the per-operation-charging naive kernel, kept
// in the test package as the reference side of the
// differential tests. Every inner-loop iteration performs the
// per-element MRAM accounting inline, and every tasklet independently
// re-reads the staged A row and the B rows.
func (r *Runner) kernelNaiveLegacy() dpu.KernelFunc {
	return func(t *dpu.Tasklet) error {
		n, k, _, alpha, aoff, err := r.legacyParams(t, false)
		if err != nil {
			return err
		}
		sc := r.getScratch()
		defer r.scratch.Put(sc)

		if t.ID() == 0 {
			legacyStageA(t, r.aWRAM, aoff, k)
		}
		aRow := sc.aRow[:k*2]
		copy(aRow, t.WRAMWindow(r.aWRAM, int64(len(aRow))))

		// The tasklet's strided column set.
		nCols := (n - t.ID() + t.Count() - 1) / t.Count()
		if nCols <= 0 {
			return nil
		}
		acc := sc.acc[:nCols]
		for i := range acc {
			acc[i] = 0
		}
		stride := pad4(n)

		for kk := 0; kk < k; kk++ {
			av := int16(binary.LittleEndian.Uint16(aRow[kk*2:]))
			apart := int32(alpha) * int32(av)
			// APART: one WRAM load and one 16-bit multiply per k
			// (Algorithm 2 line 5).
			t.Charge(dpu.OpLoad, 1)
			t.Charge(dpu.OpMul16, 1)

			bRow := sc.rowBuf[:stride*2]
			t.ReadMRAM(r.bOff+int64(kk*stride)*2, bRow)
			ci := 0
			for j := t.ID(); j < n; j += t.Count() {
				bv := int16(binary.LittleEndian.Uint16(bRow[j*2:]))
				acc[ci] += apart * int32(bv)
				ci++
			}
			// Per element: MRAM read of ctmp[j], MRAM read of B[k*N+j],
			// MRAM write of ctmp[j] (8-byte minimum transfers), plus the
			// multiply-accumulate and address arithmetic.
			t.ChargeDMA(uint64(3*nCols), 8)
			t.ChargeBulk(dpu.OpMul16, uint64(nCols))
			t.ChargeBulk(dpu.OpAddInt, uint64(2*nCols)) // accumulate + index
		}

		// Output pass (Algorithm 2 lines 8-10): read ctmp, rescale,
		// clamp, write C — one more element-wise MRAM round trip.
		cRow := sc.rowBuf[:stride*2]
		t.ReadMRAM(r.cOff, cRow)
		ci := 0
		for j := t.ID(); j < n; j += t.Count() {
			binary.LittleEndian.PutUint16(cRow[j*2:], uint16(fixed.GEMMOutputClamp(acc[ci])))
			ci++
		}
		t.WriteMRAM(r.cOff, cRow)
		t.ChargeDMA(uint64(2*nCols), 8) // ctmp read + C write
		t.ChargeBulk(dpu.OpShift, uint64(nCols))
		t.ChargeBulk(dpu.OpBranch, uint64(nCols))
		return nil
	}
}

// kernelBatchLegacy is the per-operation-charging batch kernel, kept
// in the test package as the reference side of the
// differential tests: each tasklet runs legacyTilePass over its strided
// (row, tile) units, staging a row's A into its own WRAM cache slot when
// the row changes.
func (r *Runner) kernelBatchLegacy() dpu.KernelFunc {
	return func(t *dpu.Tasklet) error {
		n, k, m, alpha, aBase, err := r.legacyParams(t, true)
		if err != nil {
			return err
		}
		sc := r.getScratch()
		defer r.scratch.Put(sc)
		lt := newLegacyTile(r.tileCols)

		stride := pad4(n)
		tiles := (n + r.tileCols - 1) / r.tileCols
		tileBase := r.tileOff + int64(t.ID())*int64(r.tileCols)*8
		aSlot := r.aCacheOff + int64(t.ID())*int64((r.cfg.MaxK*2+7)&^7)
		aBytes := (k*2 + 7) &^ 7
		cachedRow := -1
		apart := make([]int32, k)
		for u := t.ID(); u < m*tiles; u += t.Count() {
			row, j0 := u/tiles, u%tiles*r.tileCols
			if row != cachedRow {
				// Rows sit at the padded stride so every transfer
				// stays aligned.
				legacyStageA(t, aSlot, aBase+int64(row*aBytes), k)
				aRow := sc.aRow[:k*2]
				copy(aRow, t.WRAMWindow(aSlot, int64(len(aRow))))
				legacyApart(t, aRow, alpha, apart)
				cachedRow = row
			}
			r.legacyTilePass(t, lt, apart, n, j0, tileBase, r.cFullOff+int64(row*stride+j0)*2)
		}
		return nil
	}
}
