package gemm

import "pimdnn/internal/cpuid"

// macBlockAVX2 is macBlock's contract for lanes (a positive multiple of
// 4) columns and rows >= 1 rows, with no bounds checks of its own: it
// reads rows*2 bytes of a and never more.
//
//go:noescape
func macBlockAVX2(acc *int32, lanes int, a *byte, rows int, block *byte, bstride int)

// macExtent is the only guard between macBlock's slices and the
// assembly, which drops Go's per-access bounds checks: it proves that
// rows rows of rowBytes bytes, bstride apart, lie inside block, or
// panics (slice bounds: a programmer error). The quotient keeps the proof
// free of a product that could overflow. One row fits at any stride,
// which is how the zero row and a page-straddling row arrive: block is
// what MRAMRowRuns passes, count rows of rowBytes at blockStride
// inside one page, or one rowBytes-long buffer at stride 0. acc is
// kernelScratch's, cut to the launch's validated n, and a is the staged A
// row's run of rows; macBlock's &acc[0], &a[0], lanes <= len(acc) and
// rows = len(a)/2 cover them.
func macExtent(block []byte, rows, rowBytes, bstride int) {
	slack := block[rowBytes:] // how far into block the last row may start
	if rows > 1 {
		_ = slack[bstride : len(slack)/(rows-1)]
	}
}

// macBlock is macBlockGo with whole groups of four lanes in assembly
// where the host has AVX2. Wrap-around int32 sums commute, so the two
// agree bit for bit.
func macBlock(acc []int32, a, block []byte, bstride int) {
	lanes, rows := len(acc)&^3, len(a)/2
	if !cpuid.AVX2 || lanes == 0 || rows == 0 {
		macBlockGo(acc, a, block, bstride)
		return
	}
	macExtent(block, rows, lanes*2, bstride)
	macBlockAVX2(&acc[0], lanes, &a[0], rows, &block[0], bstride)
	if lanes < len(acc) {
		macNarrow(acc[lanes:], a, block[lanes*2:], bstride)
	}
}
