//go:build amd64

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (ax, bx, cx, dx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, ax+8(FP)
	MOVL BX, bx+12(FP)
	MOVL CX, cx+16(FP)
	MOVL DX, dx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(dst, src *float32, n int, alpha float32)
// dst[i] += alpha*src[i], 8 lanes per iteration. Product and add round
// separately (VMULPS then VADDPS) exactly like the scalar loop.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y0
axpyloop:
	CMPQ CX, $8
	JLT  axpydone
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  axpyloop
axpydone:
	VZEROUPPER
	RET

// ROWACC_TERM loads a[p] into Y12, or jumps to skip when a[p] is ±0.
#define ROWACC_TERM(skip) \
	MOVL (R11), AX \
	ANDL $0x7fffffff, AX \
	JZ   skip \
	VBROADCASTSS (R11), Y12

// ROWACC_ADD adds a[p]·b[p*ldb+off/4 : +8] into acc through tmp.
#define ROWACC_ADD(off, tmp, acc) \
	VMULPS off(R12), Y12, tmp \
	VADDPS tmp, acc, acc

// ROWACC_NEXT advances to term p+1 and loops while terms are left.
#define ROWACC_NEXT(loop) \
	ADDQ R9, R11 \
	ADDQ R10, R12 \
	DECQ R13 \
	JNZ  loop

// ROWACC_START rewinds the a/b cursors and the term count for a block.
#define ROWACC_START \
	MOVQ SI, R11 \
	MOVQ DX, R12 \
	MOVQ R8, R13

// func rowAccAVX2(o, a, b *float32, c, k, astride, ldb int)
// o[j] += a[p*astride]*b[p*ldb+j] for j < c, p < k (c, k ≥ 1). Each
// column block of o is loaded into YMM accumulators once, receives every
// nonzero term in ascending p (VMULPS then VADDPS into the accumulator:
// one product rounding and one add rounding per term, as in the scalar
// loop), and is stored once. A term is skipped exactly when
// a[p*astride]&0x7fffffff == 0, i.e. for ±0 and never for NaN — Go's
// av != 0. Blocks are 48, 16 and 8 columns wide; the last c%8 columns
// run through the 8-lane block with VMASKMOVPS loads and stores.
//
// Registers: DI o block, SI a, DX b block, CX columns left, R8 k,
// R9/R10 a/b byte strides, R11/R12 a/b cursors, R13 terms left,
// Y12 broadcast a[p], Y13 tail mask.
TEXT ·rowAccAVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), CX
	MOVQ k+32(FP), R8
	MOVQ astride+40(FP), R9
	SHLQ $2, R9
	MOVQ ldb+48(FP), R10
	SHLQ $2, R10

ra48:
	CMPQ CX, $48
	JLT  ra16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	ROWACC_START
ra48loop:
	ROWACC_TERM(ra48skip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_ADD(64, Y8, Y2)
	ROWACC_ADD(96, Y9, Y3)
	ROWACC_ADD(128, Y10, Y4)
	ROWACC_ADD(160, Y11, Y5)
ra48skip:
	ROWACC_NEXT(ra48loop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	ADDQ $192, DI
	ADDQ $192, DX
	SUBQ $48, CX
	JMP  ra48

ra16:
	CMPQ CX, $16
	JLT  ra8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	ROWACC_START
ra16loop:
	ROWACC_TERM(ra16skip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
ra16skip:
	ROWACC_NEXT(ra16loop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX
	JMP  ra16

ra8:
	CMPQ CX, $8
	JLT  ratail
	VMOVUPS 0(DI), Y0
	ROWACC_START
ra8loop:
	ROWACC_TERM(ra8skip)
	ROWACC_ADD(0, Y6, Y0)
ra8skip:
	ROWACC_NEXT(ra8loop)
	VMOVUPS Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  ra8

ratail:
	TESTQ CX, CX
	JZ    radone
	// Y13 = the first CX lanes set: rowAccMask from entry 8-CX.
	MOVQ $8, AX
	SUBQ CX, AX
	LEAQ rowAccMask<>(SB), BX
	VMOVDQU (BX)(AX*4), Y13
	VMASKMOVPS (DI), Y13, Y0
	ROWACC_START
ratailloop:
	ROWACC_TERM(ratailskip)
	VMASKMOVPS (R12), Y13, Y6
	VMULPS     Y6, Y12, Y6
	VADDPS     Y6, Y0, Y0
ratailskip:
	ROWACC_NEXT(ratailloop)
	VMASKMOVPS Y0, Y13, (DI)

radone:
	VZEROUPPER
	RET

// rowAccMask: eight set int32 lanes then eight clear ones; the 8 lanes
// starting at entry 8-n select the first n columns.
DATA rowAccMask<>+0(SB)/4, $0xffffffff
DATA rowAccMask<>+4(SB)/4, $0xffffffff
DATA rowAccMask<>+8(SB)/4, $0xffffffff
DATA rowAccMask<>+12(SB)/4, $0xffffffff
DATA rowAccMask<>+16(SB)/4, $0xffffffff
DATA rowAccMask<>+20(SB)/4, $0xffffffff
DATA rowAccMask<>+24(SB)/4, $0xffffffff
DATA rowAccMask<>+28(SB)/4, $0xffffffff
DATA rowAccMask<>+32(SB)/4, $0
DATA rowAccMask<>+36(SB)/4, $0
DATA rowAccMask<>+40(SB)/4, $0
DATA rowAccMask<>+44(SB)/4, $0
DATA rowAccMask<>+48(SB)/4, $0
DATA rowAccMask<>+52(SB)/4, $0
DATA rowAccMask<>+56(SB)/4, $0
DATA rowAccMask<>+60(SB)/4, $0
GLOBL rowAccMask<>(SB), RODATA|NOPTR, $64
