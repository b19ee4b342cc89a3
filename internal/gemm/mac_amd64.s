#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func macBlockAVX2(acc *int32, lanes int, apart *int32, rows int, block *byte, bstride int)
//
// Column strips: lanes is a positive multiple of 4, rows >= 1.
TEXT ·macBlockAVX2(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ lanes+8(FP), CX
	MOVQ apart+16(FP), SI
	MOVQ rows+24(FP), DX
	MOVQ block+32(FP), BX
	MOVQ bstride+40(FP), R8
strip32:
	CMPQ CX, $32
	JLT  strip8
	VMOVDQU (DI), Y1
	VMOVDQU 32(DI), Y2
	VMOVDQU 64(DI), Y3
	VMOVDQU 96(DI), Y4
	MOVQ BX, R9
	XORQ R10, R10
loop32:
	VPBROADCASTD (SI)(R10*4), Y0
	VPMOVSXWD (R9), Y5
	VPMOVSXWD 16(R9), Y6
	VPMOVSXWD 32(R9), Y7
	VPMOVSXWD 48(R9), Y8
	VPMULLD Y0, Y5, Y5
	VPMULLD Y0, Y6, Y6
	VPMULLD Y0, Y7, Y7
	VPMULLD Y0, Y8, Y8
	VPADDD Y5, Y1, Y1
	VPADDD Y6, Y2, Y2
	VPADDD Y7, Y3, Y3
	VPADDD Y8, Y4, Y4
	ADDQ R8, R9
	INCQ R10
	CMPQ R10, DX
	JLT  loop32
	VMOVDQU Y1, (DI)
	VMOVDQU Y2, 32(DI)
	VMOVDQU Y3, 64(DI)
	VMOVDQU Y4, 96(DI)
	ADDQ $128, DI
	ADDQ $64, BX
	SUBQ $32, CX
	JMP  strip32
strip8:
	CMPQ CX, $8
	JLT  strip4
	VMOVDQU (DI), Y1
	MOVQ BX, R9
	XORQ R10, R10
loop8:
	VPBROADCASTD (SI)(R10*4), Y0
	VPMOVSXWD (R9), Y5
	VPMULLD Y0, Y5, Y5
	VPADDD Y5, Y1, Y1
	ADDQ R8, R9
	INCQ R10
	CMPQ R10, DX
	JLT  loop8
	VMOVDQU Y1, (DI)
	ADDQ $32, DI
	ADDQ $16, BX
	SUBQ $8, CX
	JMP  strip8
strip4:
	CMPQ CX, $4
	JLT  done
	VMOVDQU (DI), X1
	XORQ R10, R10
loop4:
	VPBROADCASTD (SI)(R10*4), X0
	VPMOVSXWD (BX), X5
	VPMULLD X0, X5, X5
	VPADDD X5, X1, X1
	ADDQ R8, BX
	INCQ R10
	CMPQ R10, DX
	JLT  loop4
	VMOVDQU X1, (DI)
done:
	VZEROUPPER
	RET
