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

// kernelLegacy is the per-operation-charging tiled kernel the block
// kernel above replaced. It is kept (in the test package)
// as the reference side of the differential tests: per tile it streams
// each B row chunk from MRAM (Eq 3.4 cost per transfer) into a private
// WRAM buffer, multiply-accumulates into a WRAM ctmp buffer with bulk
// charges per k-iteration, and writes the clamped outputs back to MRAM.
func (r *Runner) kernelLegacy() dpu.KernelFunc {
	tileCols := r.tileCols
	return func(t *dpu.Tasklet) error {
		n := int(int32(t.Load32(r.paramsOff)))
		k := int(int32(t.Load32(r.paramsOff + 4)))
		alpha := int16(int32(t.Load32(r.paramsOff + 8)))
		aoff := int64(int32(t.Load32(r.paramsOff + 16)))
		if n < 1 || k < 1 || n > r.cfg.MaxN || k > r.cfg.MaxK {
			return fmt.Errorf("gemm kernel: bad params N=%d K=%d", n, k)
		}

		sc := r.getScratch()
		defer r.scratch.Put(sc)
		lt := newLegacyTile(tileCols)

		// Tasklet 0 stages the A row into WRAM in DMA-sized chunks;
		// later tasklets (run in ID order) read it shared.
		if t.ID() == 0 {
			bytes := (k*2 + 7) &^ 7
			for off := 0; off < bytes; off += dpu.MaxDMATransfer {
				chunk := bytes - off
				if chunk > dpu.MaxDMATransfer {
					chunk = dpu.MaxDMATransfer
				}
				t.MRAMToWRAM(r.aWRAM+int64(off), aoff+int64(off), chunk)
			}
		}
		aRow := sc.aRow[:k*2]
		copy(aRow, t.WRAMWindow(r.aWRAM, int64(len(aRow))))
		// Loading A[kk] each outer iteration: one WRAM load per k, plus
		// the APART multiply (Algorithm 2 line 5).
		t.ChargeBulk(dpu.OpLoad, uint64(k))
		t.ChargeBulk(dpu.OpMul16, uint64(k))
		apart := make([]int32, k)
		for i := range apart {
			apart[i] = int32(alpha) * int32(int16(binary.LittleEndian.Uint16(aRow[i*2:])))
		}

		tiles := (n + tileCols - 1) / tileCols
		tileBase := r.tileOff + int64(t.ID())*int64(tileCols)*8
		ctmp := lt.ctmp[:tileCols]

		for tile := t.ID(); tile < tiles; tile += t.Count() {
			j0 := tile * tileCols
			cols := n - j0
			if cols > tileCols {
				cols = tileCols
			}
			chunkBytes := (cols*2 + 7) &^ 7

			for i := range ctmp[:cols] {
				ctmp[i] = 0
			}
			t.ChargeBulk(dpu.OpStore, uint64(cols)) // zeroing ctmp

			stride := pad4(n)
			for kk := 0; kk < k; kk++ {
				// Stream B[kk, j0:j0+cols] from MRAM.
				t.MRAMToWRAM(tileBase, r.bOff+int64(kk*stride+j0)*2, chunkBytes)
				bChunk := lt.chunk[:cols*2]
				copy(bChunk, t.WRAMWindow(tileBase, int64(len(bChunk))))
				ap := apart[kk]
				for j := 0; j < cols; j++ {
					bv := int16(binary.LittleEndian.Uint16(bChunk[j*2:]))
					ctmp[j] += ap * int32(bv)
				}
				// Per element: load B, load ctmp, 16-bit multiply,
				// accumulate, store ctmp (Algorithm 2 line 7).
				t.ChargeBulk(dpu.OpLoad, uint64(2*cols))
				t.ChargeBulk(dpu.OpMul16, uint64(cols))
				t.ChargeBulk(dpu.OpAddInt, uint64(cols))
				t.ChargeBulk(dpu.OpStore, uint64(cols))
			}

			// Output rescale and clamp (Algorithm 2 lines 8-10), then
			// write the C chunk back to MRAM.
			out := lt.out[:chunkBytes]
			for j := 0; j < cols; j++ {
				binary.LittleEndian.PutUint16(out[j*2:], uint16(fixed.GEMMOutputClamp(ctmp[j])))
			}
			for b := cols * 2; b < chunkBytes; b++ {
				out[b] = 0 // keep the padding tail deterministic
			}
			t.ChargeBulk(dpu.OpShift, uint64(cols))  // /32
			t.ChargeBulk(dpu.OpBranch, uint64(cols)) // clamp compare
			t.ChargeBulk(dpu.OpStore, uint64(cols))
			copy(t.WRAMWindow(tileBase, int64(len(out))), out)
			t.WRAMToMRAM(r.cOff+int64(j0*2), tileBase, chunkBytes)
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
		n := int(int32(t.Load32(r.paramsOff)))
		k := int(int32(t.Load32(r.paramsOff + 4)))
		alpha := int16(int32(t.Load32(r.paramsOff + 8)))
		aoff := int64(int32(t.Load32(r.paramsOff + 16)))
		if n < 1 || k < 1 || n > r.cfg.MaxN || k > r.cfg.MaxK {
			return fmt.Errorf("gemm kernel: bad params N=%d K=%d", n, k)
		}
		sc := r.getScratch()
		defer r.scratch.Put(sc)

		if t.ID() == 0 {
			bytes := (k*2 + 7) &^ 7
			for off := 0; off < bytes; off += dpu.MaxDMATransfer {
				chunk := bytes - off
				if chunk > dpu.MaxDMATransfer {
					chunk = dpu.MaxDMATransfer
				}
				t.MRAMToWRAM(r.aWRAM+int64(off), aoff+int64(off), chunk)
			}
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
// differential tests.
func (r *Runner) kernelBatchLegacy() dpu.KernelFunc {
	tileCols := r.tileCols
	return func(t *dpu.Tasklet) error {
		n := int(int32(t.Load32(r.paramsOff)))
		k := int(int32(t.Load32(r.paramsOff + 4)))
		alpha := int16(int32(t.Load32(r.paramsOff + 8)))
		m := int(int32(t.Load32(r.paramsOff + 12)))
		aBase := int64(int32(t.Load32(r.paramsOff + 16)))
		if n < 1 || k < 1 || m < 1 || n > r.cfg.MaxN || k > r.cfg.MaxK || m > r.maxM {
			return fmt.Errorf("gemm batch kernel: bad params M=%d N=%d K=%d", m, n, k)
		}

		sc := r.getScratch()
		defer r.scratch.Put(sc)
		lt := newLegacyTile(tileCols)

		stride := pad4(n)
		tiles := (n + tileCols - 1) / tileCols
		units := m * tiles
		tileBase := r.tileOff + int64(t.ID())*int64(tileCols)*8
		aSlot := r.aCacheOff + int64(t.ID())*int64((r.cfg.MaxK*2+7)&^7)
		aBytes := (k*2 + 7) &^ 7

		cachedRow := -1
		apart := make([]int32, k)
		ctmp := lt.ctmp[:tileCols]

		for u := t.ID(); u < units; u += t.Count() {
			row := u / tiles
			tile := u % tiles

			if row != cachedRow {
				// Stage this A row into the tasklet's WRAM cache and
				// precompute APART (Algorithm 2 line 5). Rows sit at
				// the padded stride so every transfer stays aligned.
				for off := 0; off < aBytes; off += dpu.MaxDMATransfer {
					chunk := aBytes - off
					if chunk > dpu.MaxDMATransfer {
						chunk = dpu.MaxDMATransfer
					}
					t.MRAMToWRAM(aSlot+int64(off), aBase+int64(row)*int64(aBytes)+int64(off), chunk)
				}
				aRow := sc.aRow[:k*2]
				copy(aRow, t.WRAMWindow(aSlot, int64(len(aRow))))
				t.ChargeBulk(dpu.OpLoad, uint64(k))
				t.ChargeBulk(dpu.OpMul16, uint64(k))
				for i := 0; i < k; i++ {
					apart[i] = int32(alpha) * int32(int16(binary.LittleEndian.Uint16(aRow[i*2:])))
				}
				cachedRow = row
			}

			j0 := tile * tileCols
			cols := n - j0
			if cols > tileCols {
				cols = tileCols
			}
			chunkBytes := (cols*2 + 7) &^ 7

			for i := range ctmp[:cols] {
				ctmp[i] = 0
			}
			t.ChargeBulk(dpu.OpStore, uint64(cols))

			for kk := 0; kk < k; kk++ {
				t.MRAMToWRAM(tileBase, r.bOff+int64(kk*stride+j0)*2, chunkBytes)
				bChunk := lt.chunk[:cols*2]
				copy(bChunk, t.WRAMWindow(tileBase, int64(len(bChunk))))
				ap := apart[kk]
				for j := 0; j < cols; j++ {
					ctmp[j] += ap * int32(int16(binary.LittleEndian.Uint16(bChunk[j*2:])))
				}
				t.ChargeBulk(dpu.OpLoad, uint64(2*cols))
				t.ChargeBulk(dpu.OpMul16, uint64(cols))
				t.ChargeBulk(dpu.OpAddInt, uint64(cols))
				t.ChargeBulk(dpu.OpStore, uint64(cols))
			}

			out := lt.out[:chunkBytes]
			for j := 0; j < cols; j++ {
				binary.LittleEndian.PutUint16(out[j*2:], uint16(fixed.GEMMOutputClamp(ctmp[j])))
			}
			for b := cols * 2; b < chunkBytes; b++ {
				out[b] = 0
			}
			t.ChargeBulk(dpu.OpShift, uint64(cols))
			t.ChargeBulk(dpu.OpBranch, uint64(cols))
			t.ChargeBulk(dpu.OpStore, uint64(cols))
			copy(t.WRAMWindow(tileBase, int64(len(out))), out)
			t.WRAMToMRAM(r.cFullOff+int64(row*stride+j0)*2, tileBase, chunkBytes)
		}
		return nil
	}
}
