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
// width, which measured no worse than a 16-lane row sweep above this size
// (medians 0.093 vs 0.098 ns/MAC at 1,024 lanes and 0.071 vs 0.100 at 169
// from cache, 0.42 vs 0.36 from DRAM; rows_zoo and array_yolo inside
// their spread either way), so there it has nothing to select.
const narrowRowBytes = 64

// macNarrow multiply-accumulates the len(apart) rows of block, spaced
// bstride bytes apart and len(acc) lanes wide, into acc: per group of
// four columns one loop down the rows with the accumulators in
// registers. Wrap-around int32 addition commutes, so the result is
// bit-identical to accumulating row by row.
func macNarrow(acc, apart []int32, block []byte, bstride int) {
	for j := 0; j+4 <= len(acc); j += 4 {
		c := acc[j : j+4 : j+4]
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		o := j * 2
		for _, ap := range apart {
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
		for _, ap := range apart {
			c += ap * int32(int16(binary.LittleEndian.Uint16(block[o:])))
			o += bstride
		}
		acc[j] = c
	}
}

// macBlockGo is the block MAC in portable Go, for j < len(acc)
// acc[j] += Σ_r apart[r]·int16le(block[r·bstride+2j]) mod 2³²: what hosts
// without AVX2 run, what finishes the lanes the assembly leaves, and its
// oracle in tests.
func macBlockGo(acc, apart []int32, block []byte, bstride int) {
	if pad4(len(acc))*2 <= narrowRowBytes {
		macNarrow(acc, apart, block, bstride)
		return
	}
	for ri, a := range apart {
		if a != 0 {
			macRow(acc, block[ri*bstride:], a, len(acc))
		}
	}
}
