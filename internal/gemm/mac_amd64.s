#include "textflag.h"

// func macBlockAVX2(acc *int32, lanes int, a *byte, rows int, block *byte, bstride int)
//
// Column strips of 32, 16, 8 and 4 lanes: lanes is a positive multiple
// of 4, rows >= 1. Each strip walks the rows in pairs. VPUNPCK{L,H}WD
// interleaves the words of rows r and r+1, the dword at a[2r] broadcast
// is the pair (A[r], A[r+1]), and one VPMADDWD per 8 lanes adds
// A[r]·B[r][j] + A[r+1]·B[r+1][j] into a zeroed accumulator. It wraps
// only when all four words are 0x8000 (2³¹ → 0x80000000), which is
// exact mod 2³². An odd last row is paired with zeros (its A word
// broadcast alone, so no byte past a[2·rows] is read). Unpacking works
// within 128-bit halves, so a YMM accumulator pair holds columns
// 0-3|8-11 and 4-7|12-15 of its 16; VPERM2I128 restores column order
// once per strip, before the accumulators are added into acc.
//
// In each strip R9 is row r, R11 the A pair of rows r and r+1, and R10
// the rows left; the loop runs while two are left, then once more with
// the zero partner if one is.
TEXT ·macBlockAVX2(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ lanes+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ rows+24(FP), DX
	MOVQ block+32(FP), BX
	MOVQ bstride+40(FP), R8

strip32:
	CMPQ CX, $32
	JLT  strip16
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	MOVQ BX, R9
	MOVQ SI, R11
	MOVQ DX, R10
	JMP  next32

pair32:
	VMOVDQU      (R9)(R8*1), Y7
	VMOVDQU      32(R9)(R8*1), Y8
	VPBROADCASTD (R11), Y0

mac32:
	VMOVDQU    (R9), Y5
	VMOVDQU    32(R9), Y6
	VPUNPCKHWD Y7, Y5, Y9
	VPUNPCKLWD Y7, Y5, Y5
	VPUNPCKHWD Y8, Y6, Y10
	VPUNPCKLWD Y8, Y6, Y6
	VPMADDWD   Y0, Y5, Y5
	VPMADDWD   Y0, Y9, Y9
	VPMADDWD   Y0, Y6, Y6
	VPMADDWD   Y0, Y10, Y10
	VPADDD     Y5, Y1, Y1
	VPADDD     Y9, Y2, Y2
	VPADDD     Y6, Y3, Y3
	VPADDD     Y10, Y4, Y4
	LEAQ       (R9)(R8*2), R9
	ADDQ       $4, R11
	SUBQ       $2, R10

next32:
	CMPQ         R10, $1
	JGT          pair32
	JLT          store32
	VPXOR        Y7, Y7, Y7
	VPXOR        Y8, Y8, Y8
	VPBROADCASTW (R11), Y0
	JMP          mac32

store32:
	VPERM2I128 $0x20, Y2, Y1, Y5
	VPERM2I128 $0x31, Y2, Y1, Y6
	VPERM2I128 $0x20, Y4, Y3, Y7
	VPERM2I128 $0x31, Y4, Y3, Y8
	VPADDD     (DI), Y5, Y5
	VPADDD     32(DI), Y6, Y6
	VPADDD     64(DI), Y7, Y7
	VPADDD     96(DI), Y8, Y8
	VMOVDQU    Y5, (DI)
	VMOVDQU    Y6, 32(DI)
	VMOVDQU    Y7, 64(DI)
	VMOVDQU    Y8, 96(DI)
	ADDQ       $128, DI
	ADDQ       $64, BX
	SUBQ       $32, CX
	JMP        strip32

// After the 32-lane strips fewer than 32 lanes are left, so the 16-,
// 8- and 4-lane strips each run at most once, in turn.
strip16:
	CMPQ  CX, $16
	JLT   strip8
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	MOVQ  BX, R9
	MOVQ  SI, R11
	MOVQ  DX, R10
	JMP   next16

pair16:
	VMOVDQU      (R9)(R8*1), Y7
	VPBROADCASTD (R11), Y0

mac16:
	VMOVDQU    (R9), Y5
	VPUNPCKHWD Y7, Y5, Y9
	VPUNPCKLWD Y7, Y5, Y5
	VPMADDWD   Y0, Y5, Y5
	VPMADDWD   Y0, Y9, Y9
	VPADDD     Y5, Y1, Y1
	VPADDD     Y9, Y2, Y2
	LEAQ       (R9)(R8*2), R9
	ADDQ       $4, R11
	SUBQ       $2, R10

next16:
	CMPQ         R10, $1
	JGT          pair16
	JLT          store16
	VPXOR        Y7, Y7, Y7
	VPBROADCASTW (R11), Y0
	JMP          mac16

store16:
	VPERM2I128 $0x20, Y2, Y1, Y5
	VPERM2I128 $0x31, Y2, Y1, Y6
	VPADDD     (DI), Y5, Y5
	VPADDD     32(DI), Y6, Y6
	VMOVDQU    Y5, (DI)
	VMOVDQU    Y6, 32(DI)
	ADDQ       $64, DI
	ADDQ       $32, BX
	SUBQ       $16, CX

// The XMM strips' unpacks already leave columns in order.
strip8:
	CMPQ  CX, $8
	JLT   strip4
	VPXOR X1, X1, X1
	VPXOR X2, X2, X2
	MOVQ  BX, R9
	MOVQ  SI, R11
	MOVQ  DX, R10
	JMP   next8

pair8:
	VMOVDQU      (R9)(R8*1), X7
	VPBROADCASTD (R11), X0

mac8:
	VMOVDQU    (R9), X5
	VPUNPCKHWD X7, X5, X9
	VPUNPCKLWD X7, X5, X5
	VPMADDWD   X0, X5, X5
	VPMADDWD   X0, X9, X9
	VPADDD     X5, X1, X1
	VPADDD     X9, X2, X2
	LEAQ       (R9)(R8*2), R9
	ADDQ       $4, R11
	SUBQ       $2, R10

next8:
	CMPQ         R10, $1
	JGT          pair8
	JLT          store8
	VPXOR        X7, X7, X7
	VPBROADCASTW (R11), X0
	JMP          mac8

store8:
	VPADDD  (DI), X1, X1
	VPADDD  16(DI), X2, X2
	VMOVDQU X1, (DI)
	VMOVDQU X2, 16(DI)
	ADDQ    $32, DI
	ADDQ    $16, BX
	SUBQ    $8, CX

strip4:
	CMPQ  CX, $4
	JLT   done
	VPXOR X1, X1, X1
	MOVQ  BX, R9
	MOVQ  SI, R11
	MOVQ  DX, R10
	JMP   next4

pair4:
	VMOVQ        (R9)(R8*1), X7
	VPBROADCASTD (R11), X0

mac4:
	VMOVQ      (R9), X5
	VPUNPCKLWD X7, X5, X5
	VPMADDWD   X0, X5, X5
	VPADDD     X5, X1, X1
	LEAQ       (R9)(R8*2), R9
	ADDQ       $4, R11
	SUBQ       $2, R10

next4:
	CMPQ         R10, $1
	JGT          pair4
	JLT          store4
	VPXOR        X7, X7, X7
	VPBROADCASTW (R11), X0
	JMP          mac4

store4:
	VPADDD  (DI), X1, X1
	VMOVDQU X1, (DI)

done:
	VZEROUPPER
	RET
