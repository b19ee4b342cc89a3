#include "textflag.h"

#define CELLS 169 // PoolCells
#define LIST 5408 // listCap·4: from one image's list to the next, in bytes

// ADD adds the weight row at byte offset idx to one image's lanes: lane
// c is Go's s_c += w[c], one IEEE binary32 round-to-nearest add. LOAD
// and STORE move an image's lanes from and to out+off.
#define ADD(idx, y, x) VADDPS (SI)(idx*1), y, y; VADDPS 32(SI)(idx*1), x, x
#define LOAD(off, y, x) VMOVUPS off(DI), y; VMOVUPS off+32(DI), x
#define STORE(off, y, x) VMOVUPS y, off(DI); VMOVUPS x, off+32(DI)

// func setFeatures(list *int32, res *byte, mask, step int, table *[256][8]int32) (n int)
//
// Branch-free: per cell, the masked byte's table row plus cell·step is
// stored whole, and the list's end advances by the byte's popcount.
TEXT ·setFeatures(SB), NOSPLIT, $0-48
	MOVQ list+0(FP), DI
	MOVQ res+8(FP), SI
	MOVQ mask+16(FP), DX
	MOVQ step+24(FP), AX
	MOVQ table+32(FP), BX
	MOVQ AX, X1
	VPBROADCASTD X1, Y1
	VPXOR Y2, Y2, Y2
	MOVQ DI, R8
	LEAQ CELLS(SI), R10
cell:
	MOVBLZX (SI), AX
	ANDQ DX, AX
	POPCNTQ AX, CX
	SHLQ $5, AX
	VPADDD (BX)(AX*1), Y2, Y3
	VMOVDQU Y3, (DI)
	LEAQ (DI)(CX*4), DI
	VPADDD Y1, Y2, Y2
	INCQ SI
	CMPQ SI, R10
	JNE  cell
	SUBQ R8, DI
	SHRQ $2, DI
	MOVQ DI, n+40(FP)
	VZEROUPPER
	RET

// func classSums4(out *[4][16]float32, w *float32, lists *[4][listCap]int32, n *[4]int, lock int)
TEXT ·classSums4(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ lists+16(FP), R8
	MOVQ n+24(FP), R11
	MOVQ lock+32(FP), DX
	LOAD(0, Y0, X4)
	LOAD(64, Y1, X5)
	LOAD(128, Y2, X6)
	LOAD(192, Y3, X7)
	XORQ CX, CX
	TESTQ DX, DX
	JZ   stored
lockstep:
	MOVL (R8)(CX*4), AX
	MOVL LIST(R8)(CX*4), BX
	MOVL (2*LIST)(R8)(CX*4), R9
	MOVL (3*LIST)(R8)(CX*4), R10
	ADD(AX, Y0, X4)
	ADD(BX, Y1, X5)
	ADD(R9, Y2, X6)
	ADD(R10, Y3, X7)
	INCQ CX
	CMPQ CX, DX
	JLT  lockstep
stored:
	STORE(0, Y0, X4)
	STORE(64, Y1, X5)
	STORE(128, Y2, X6)
	STORE(192, Y3, X7)
	MOVQ $4, R12
tail: // image by image: its list from lock to n[k]
	MOVQ (R11), BX
	LOAD(0, Y0, X4)
	MOVQ DX, CX
	JMP  tailtest
tailadd:
	MOVL (R8)(CX*4), AX
	ADD(AX, Y0, X4)
	INCQ CX
tailtest:
	CMPQ CX, BX
	JLT  tailadd
	STORE(0, Y0, X4)
	ADDQ $64, DI
	ADDQ $LIST, R8
	ADDQ $8, R11
	DECQ R12
	JNZ  tail
	VZEROUPPER
	RET
