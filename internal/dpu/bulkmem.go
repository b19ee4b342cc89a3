package dpu

import "fmt"

// Kernel-emulation memory access. Kernels that account for their work
// with CostBlock/ChargeDMA compute natively on host memory and move
// data in bulk through these tasklet accessors. A launch holds its DPU's
// lock while the kernel runs (Do), so they take none. None of
// them charge cycles or meter telemetry: the modeled DMA traffic is
// charged separately (and the launch-end aggregation meters it), so a
// kernel that used these for its data and ChargeBlock for its cycles
// reports exactly the same counters as one that moved every chunk
// through MRAMToWRAM. A bad access traps like any other tasklet access:
// the launch returns the memory fault.

// WRAMWindow returns a direct view of WRAM [off, off+n) for kernel
// emulation. No cycles are charged; the caller accounts for its loads
// and stores via ChargeBlock. The view aliases live WRAM: it is valid
// only inside the current launch and must not be retained.
func (t *Tasklet) WRAMWindow(off, n int64) []byte {
	if n < 0 || off < 0 || off+n > int64(t.dpu.cfg.WRAMSize) {
		t.trapf("WRAM window [%d, %d) outside [0, %d)", off, off+n, t.dpu.cfg.WRAMSize)
	}
	return t.dpu.wram[off : off+n]
}

// ReadMRAM reads len(dst) bytes of MRAM at off into dst. The DMA
// engine's bounds and alignment rules apply, catching kernel layout
// bugs; its per-transfer size limit does not.
func (t *Tasklet) ReadMRAM(off int64, dst []byte) {
	t.trapOn(t.dpu.checkDMAArgs(off, len(dst)))
	t.dpu.mramRead(off, dst)
}

// WriteMRAM writes src to MRAM at off, under ReadMRAM's rules.
func (t *Tasklet) WriteMRAM(off int64, src []byte) {
	t.trapOn(t.dpu.checkDMAArgs(off, len(src)))
	t.dpu.mramWrite(off, src)
}

// MRAMRowRuns walks rows rows of rowBytes bytes spaced stride bytes
// apart starting at off, in place, invoking fn once per run of rows that
// lie in one MRAM page: fn receives the index of the run's first row,
// the row count, a block aliasing the page where row first+r starts at
// block[r*blockStride], and that stride. Runs cover all rows in order. A
// row that crosses a page boundary (at most one per 64 KB) is staged
// through a small internal buffer and passed as a run of one; the rows
// of an untouched page are passed as one run with a blockStride of 0,
// every row aliasing the same zero bytes. fn must not write block or
// retain it.
func (t *Tasklet) MRAMRowRuns(off, stride int64, rowBytes, rows int, fn func(first, count int, block []byte, blockStride int)) {
	t.trapOn(t.dpu.rowRuns(off, stride, rowBytes, rows, false, fn))
}

// writeRows is a request's in-place row scatter (Xfer): rowRuns
// writing x's rows, filled by x.Visit. Callers hold d.mu.
func (d *DPU) writeRows(x *Xfer) error {
	return d.rowRuns(x.Off, int64(x.RowBytes), x.RowBytes, x.Rows, true, x.Visit)
}

// rowRuns is the walk behind MRAMRowRuns and a request's row transfers,
// a write when write is set. Callers hold d.mu.
func (d *DPU) rowRuns(off, stride int64, rowBytes, rows int, write bool, fn func(first, count int, block []byte, blockStride int)) error {
	if rowBytes <= 0 || rows < 0 {
		return fmt.Errorf("dpu: strided MRAM walk: bad row size %d / count %d", rowBytes, rows)
	}
	if rows == 0 {
		return nil
	}
	if off%DMAAlignment != 0 || stride%DMAAlignment != 0 || rowBytes%DMAAlignment != 0 {
		return fmt.Errorf("dpu: strided MRAM walk off=%d stride=%d row=%d violates %d-byte alignment",
			off, stride, rowBytes, DMAAlignment)
	}
	last := off + int64(rows-1)*stride
	if off < 0 || stride < 0 || last+int64(rowBytes) > d.cfg.MRAMSize {
		return fmt.Errorf("dpu: strided MRAM walk [%d, %d) outside [0, %d)", off, last+int64(rowBytes), d.cfg.MRAMSize)
	}
	if cap(d.rowScratch) < rowBytes {
		d.rowScratch = make([]byte, rowBytes)
	}
	buf := d.rowScratch[:rowBytes]
	for i := 0; i < rows; {
		ro := off + int64(i)*stride
		page, po := ro/MRAMPageSize, int(ro%MRAMPageSize)
		if po+rowBytes > MRAMPageSize {
			// Page-boundary-crossing row: stage it alone.
			if write {
				fn(i, 1, buf, rowBytes)
				d.mramWrite(ro, buf)
			} else {
				d.mramRead(ro, buf)
				fn(i, 1, buf, 0)
			}
			i++
			continue
		}
		// How many consecutive rows stay fully inside this page?
		count := rows - i
		if stride > 0 {
			count = min(count, (MRAMPageSize-po-rowBytes)/int(stride)+1)
		}
		switch p := d.mramPages[page]; {
		case write:
			n := (count-1)*int(stride) + rowBytes
			fn(i, count, d.ownPage(page, po, n).data[po:po+n], int(stride))
		case p == nil:
			// Untouched page: every row reads as zero.
			clear(buf)
			fn(i, count, buf, 0)
		default:
			fn(i, count, p.data[po:], int(stride))
		}
		i += count
	}
	return nil
}
