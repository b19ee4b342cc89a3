package gemm

import "encoding/binary"

// macRow multiply-accumulates ap times the little-endian int16 lanes of
// row into ctmp[:cols], four lanes per 8-byte load. B rows are pad4(cols)
// lanes long, so the 4-wide reads never run past the row.
func macRow(ctmp []int32, row []byte, ap int32, cols int) {
	j := 0
	for ; j+4 <= cols; j += 4 {
		v := binary.LittleEndian.Uint64(row[j*2:])
		ctmp[j] += ap * int32(int16(v))
		ctmp[j+1] += ap * int32(int16(v>>16))
		ctmp[j+2] += ap * int32(int16(v>>32))
		ctmp[j+3] += ap * int32(int16(v>>48))
	}
	for ; j < cols; j++ {
		ctmp[j] += ap * int32(int16(binary.LittleEndian.Uint16(row[j*2:])))
	}
}

// narrowRowBytes is the B row size up to which macNarrow beats a macRow
// per row: rows no wider than a cache line, where the walk down a column
// group is a walk through contiguous memory and macRow's per-row set-up
// outweighs its few lanes (the 1- and 4-column late layers of a CNN). It
// steers the Go loops only: the AVX2 kernel walks column strips at every
// width, so there it has nothing to select. On a 2-core Xeon (go1.24.0),
// over packed rows, its medians read 0.05-0.06 ns/MAC at 1,024 and 169
// lanes from cache, 0.25-0.29 from DRAM and 0.14 at 4 lanes; the
// one-row-per-VPMULLD kernel before it read 0.11-0.12, 0.36-0.38 and
// 0.31, no worse than a 16-lane row sweep above this size.
const narrowRowBytes = 64

// macNarrow multiply-accumulates the len(a)/2 rows of block, spaced
// bstride bytes apart and len(acc) lanes wide, into acc, row r weighted
// by the little-endian int16 at a[2r]: per group of four columns one
// loop down the rows with the accumulators in registers. Wrap-around
// int32 addition commutes, so the result is bit-identical to
// accumulating row by row.
func macNarrow(acc []int32, a, block []byte, bstride int) {
	for j := 0; j+4 <= len(acc); j += 4 {
		c := acc[j : j+4 : j+4]
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		o := j * 2
		for r := 0; r+1 < len(a); r += 2 {
			ap := int32(int16(binary.LittleEndian.Uint16(a[r:])))
			v := binary.LittleEndian.Uint64(block[o:])
			c0 += ap * int32(int16(v))
			c1 += ap * int32(int16(v>>16))
			c2 += ap * int32(int16(v>>32))
			c3 += ap * int32(int16(v>>48))
			o += bstride
		}
		c[0], c[1], c[2], c[3] = c0, c1, c2, c3
	}
	for j := len(acc) &^ 3; j < len(acc); j++ {
		c, o := acc[j], j*2
		for r := 0; r+1 < len(a); r += 2 {
			c += int32(int16(binary.LittleEndian.Uint16(a[r:]))) * int32(int16(binary.LittleEndian.Uint16(block[o:])))
			o += bstride
		}
		acc[j] = c
	}
}

// macBlockGo is the block MAC in portable Go, for j < len(acc)
// acc[j] += Σ_r int16le(a[2r])·int16le(block[r·bstride+2j]) mod 2³² over
// the len(a)/2 rows r: what hosts without AVX2 run, what finishes the
// lanes the assembly leaves, and, beside macRef, the assembly's oracle
// in tests.
func macBlockGo(acc []int32, a, block []byte, bstride int) {
	if pad4(len(acc))*2 <= narrowRowBytes {
		macNarrow(acc, a, block, bstride)
		return
	}
	for r := 0; r+1 < len(a); r += 2 {
		if ap := int32(int16(binary.LittleEndian.Uint16(a[r:]))); ap != 0 {
			macRow(acc, block[r/2*bstride:], ap, len(acc))
		}
	}
}
