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

// ROWACC_MADD adds a[p]·b[p*ldb+off/4 : +8] into acc through tmp for the
// lanes set in Y13, the masked tail block.
#define ROWACC_MADD(off, tmp, acc) \
	VMASKMOVPS off(R12), Y13, tmp \
	VMULPS tmp, Y12, tmp \
	VADDPS tmp, acc, acc

// func rowAccAVX2(o, a, b *float32, c, k, astride, ldb int)
// o[j] += a[p*astride]*b[p*ldb+j] for j < c, p < k (c, k ≥ 1). Each
// column block of o is loaded into YMM accumulators once, receives every
// nonzero term in ascending p (VMULPS then VADDPS into the accumulator:
// one product rounding and one add rounding per term, as in the scalar
// loop), and is stored once. A term is skipped exactly when
// a[p*astride]&0x7fffffff == 0, i.e. for ±0 and never for NaN — Go's
// av != 0. Blocks are 48 columns wide; the last c%48 columns go in one
// more pass over the terms, with one accumulator per 8 of them and, for
// the last c%8, one more through VMASKMOVPS loads and stores. Short rows
// (attention's 12-column P·V, a 33-key score row) thus take a single
// pass whose accumulators advance side by side.
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
	JLT  rarest
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

rarest:
	// CX < 48 columns left: BX = full 8-column blocks, CX = the tail.
	MOVQ CX, BX
	SHRQ $3, BX
	ANDQ $7, CX
	JZ   rafull
	// Y13 = the first CX lanes set: rowAccMask from entry 8-CX.
	MOVQ $8, AX
	SUBQ CX, AX
	LEAQ rowAccMask<>(SB), R11
	VMOVDQU (R11)(AX*4), Y13
	CMPQ BX, $1
	JLT  ra0t
	JEQ  ra8t
	CMPQ BX, $3
	JLT  ra16t
	JEQ  ra24t
	CMPQ BX, $5
	JLT  ra32t
	JMP  ra40t

rafull:
	CMPQ BX, $1
	JLT  radone
	JEQ  ra8
	CMPQ BX, $3
	JLT  ra16
	JEQ  ra24
	CMPQ BX, $5
	JLT  ra32
	JMP  ra40

ra40:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	ROWACC_START
ra40loop:
	ROWACC_TERM(ra40skip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_ADD(64, Y8, Y2)
	ROWACC_ADD(96, Y9, Y3)
	ROWACC_ADD(128, Y10, Y4)
ra40skip:
	ROWACC_NEXT(ra40loop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	JMP  radone

ra32:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	ROWACC_START
ra32loop:
	ROWACC_TERM(ra32skip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_ADD(64, Y8, Y2)
	ROWACC_ADD(96, Y9, Y3)
ra32skip:
	ROWACC_NEXT(ra32loop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	JMP  radone

ra24:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	ROWACC_START
ra24loop:
	ROWACC_TERM(ra24skip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_ADD(64, Y8, Y2)
ra24skip:
	ROWACC_NEXT(ra24loop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	JMP  radone

ra16:
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
	JMP  radone

ra8:
	VMOVUPS 0(DI), Y0
	ROWACC_START
ra8loop:
	ROWACC_TERM(ra8skip)
	ROWACC_ADD(0, Y6, Y0)
ra8skip:
	ROWACC_NEXT(ra8loop)
	VMOVUPS Y0, 0(DI)
	JMP  radone

ra40t:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMASKMOVPS 160(DI), Y13, Y5
	ROWACC_START
ra40tloop:
	ROWACC_TERM(ra40tskip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_ADD(64, Y8, Y2)
	ROWACC_ADD(96, Y9, Y3)
	ROWACC_ADD(128, Y10, Y4)
	ROWACC_MADD(160, Y11, Y5)
ra40tskip:
	ROWACC_NEXT(ra40tloop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMASKMOVPS Y5, Y13, 160(DI)
	JMP  radone

ra32t:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMASKMOVPS 128(DI), Y13, Y4
	ROWACC_START
ra32tloop:
	ROWACC_TERM(ra32tskip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_ADD(64, Y8, Y2)
	ROWACC_ADD(96, Y9, Y3)
	ROWACC_MADD(128, Y10, Y4)
ra32tskip:
	ROWACC_NEXT(ra32tloop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMASKMOVPS Y4, Y13, 128(DI)
	JMP  radone

ra24t:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMASKMOVPS 96(DI), Y13, Y3
	ROWACC_START
ra24tloop:
	ROWACC_TERM(ra24tskip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_ADD(64, Y8, Y2)
	ROWACC_MADD(96, Y9, Y3)
ra24tskip:
	ROWACC_NEXT(ra24tloop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMASKMOVPS Y3, Y13, 96(DI)
	JMP  radone

ra16t:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMASKMOVPS 64(DI), Y13, Y2
	ROWACC_START
ra16tloop:
	ROWACC_TERM(ra16tskip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_ADD(32, Y7, Y1)
	ROWACC_MADD(64, Y8, Y2)
ra16tskip:
	ROWACC_NEXT(ra16tloop)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMASKMOVPS Y2, Y13, 64(DI)
	JMP  radone

ra8t:
	VMOVUPS 0(DI), Y0
	VMASKMOVPS 32(DI), Y13, Y1
	ROWACC_START
ra8tloop:
	ROWACC_TERM(ra8tskip)
	ROWACC_ADD(0, Y6, Y0)
	ROWACC_MADD(32, Y7, Y1)
ra8tskip:
	ROWACC_NEXT(ra8tloop)
	VMOVUPS Y0, 0(DI)
	VMASKMOVPS Y1, Y13, 32(DI)
	JMP  radone

ra0t:
	VMASKMOVPS 0(DI), Y13, Y0
	ROWACC_START
ra0tloop:
	ROWACC_TERM(ra0tskip)
	ROWACC_MADD(0, Y6, Y0)
ra0tskip:
	ROWACC_NEXT(ra0tloop)
	VMASKMOVPS Y0, Y13, 0(DI)

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

// func layerNormApplyAVX2(dst, src, gain, bias *float32, n int, mean, is float32)
// dst[j] = (src[j]-mean)*is*gain[j] + bias[j] for j < n (n ≥ 1), 8 lanes
// at a time and the last n%8 through VMASKMOVPS: per element the scalar
// formula's subtract, two multiplies and add, each rounded on its own,
// in Go's left-to-right order. No FMA.
TEXT ·layerNormApplyAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ gain+16(FP), R8
	MOVQ bias+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSS mean+40(FP), Y8
	VBROADCASTSS is+44(FP), Y9
	XORQ AX, AX

lnloop:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JGT  lntail
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS Y8, Y0, Y0
	VMULPS Y9, Y0, Y0
	VMULPS (R8)(AX*4), Y0, Y0
	VADDPS (R9)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ BX, AX
	JMP  lnloop

lntail:
	SUBQ AX, CX
	JZ   lndone
	// Y13 = the first CX lanes set: rowAccMask from entry 8-CX.
	MOVQ $8, BX
	SUBQ CX, BX
	LEAQ rowAccMask<>(SB), DX
	VMOVDQU (DX)(BX*4), Y13
	VMASKMOVPS (SI)(AX*4), Y13, Y0
	VMASKMOVPS (R8)(AX*4), Y13, Y1
	VMASKMOVPS (R9)(AX*4), Y13, Y2
	VSUBPS Y8, Y0, Y0
	VMULPS Y9, Y0, Y0
	VMULPS Y1, Y0, Y0
	VADDPS Y2, Y0, Y0
	VMASKMOVPS Y0, Y13, (DI)(AX*4)

lndone:
	VZEROUPPER
	RET

// TR_QUADS loads the 8×8 tile whose rows a–h start at SI, SI+R9,
// SI+2·R9, SI+R10 and DX, DX+R9, DX+2·R9, DX+R10, and leaves its quads:
// Y0–Y3 hold [a_k b_k c_k d_k | a_k+4 b_k+4 c_k+4 d_k+4] for k = 0–3, and
// Y4–Y7 the same from rows e–h. Column k of the tile is then
// VPERM2F128 $0x20 of Y(4+k) and Y(k), column k+4 VPERM2F128 $0x31 of
// them. Y8–Y11 are clobbered. Moves only: every bit pattern, NaN
// payloads included, arrives unchanged.
#define TR_QUADS \
	VMOVUPS (SI), Y0; \
	VMOVUPS (SI)(R9*1), Y1; \
	VMOVUPS (SI)(R9*2), Y2; \
	VMOVUPS (SI)(R10*1), Y3; \
	VUNPCKLPS Y1, Y0, Y8; \
	VUNPCKHPS Y1, Y0, Y9; \
	VUNPCKLPS Y3, Y2, Y10; \
	VUNPCKHPS Y3, Y2, Y11; \
	VSHUFPS $0x44, Y10, Y8, Y0; \
	VSHUFPS $0xee, Y10, Y8, Y1; \
	VSHUFPS $0x44, Y11, Y9, Y2; \
	VSHUFPS $0xee, Y11, Y9, Y3; \
	VMOVUPS (DX), Y4; \
	VMOVUPS (DX)(R9*1), Y5; \
	VMOVUPS (DX)(R9*2), Y6; \
	VMOVUPS (DX)(R10*1), Y7; \
	VUNPCKLPS Y5, Y4, Y8; \
	VUNPCKHPS Y5, Y4, Y9; \
	VUNPCKLPS Y7, Y6, Y10; \
	VUNPCKHPS Y7, Y6, Y11; \
	VSHUFPS $0x44, Y10, Y8, Y4; \
	VSHUFPS $0xee, Y10, Y8, Y5; \
	VSHUFPS $0x44, Y11, Y9, Y6; \
	VSHUFPS $0xee, Y11, Y9, Y7

// func transpose8AVX2(dst *float32, ldd int, src *float32, lds int, m int)
// dst[c*ldd+r] = src[r*lds+c] for r < 8, c < m (m a positive multiple
// of 8): an 8-row strip transposed one 8×8 tile at a time.
//
// Registers: SI/DX source tile (TR_QUADS), DI destination tile (rows
// 0–3 at DI + {0,1,2,3}·R8, rows 4–7 from BX), R8/R9 destination/source
// strides in bytes, R10/R11 three source/destination strides, CX
// columns left.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $2, R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	SHLQ $2, R9
	MOVQ m+32(FP), CX
	LEAQ (R9)(R9*2), R10
	LEAQ (R8)(R8*2), R11

trloop:
	LEAQ (SI)(R9*4), DX
	TR_QUADS
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	LEAQ (DI)(R8*4), BX
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R8*1)
	VMOVUPS Y10, (DI)(R8*2)
	VMOVUPS Y11, (DI)(R11*1)
	VMOVUPS Y12, (BX)
	VMOVUPS Y13, (BX)(R8*1)
	VMOVUPS Y14, (BX)(R8*2)
	VMOVUPS Y15, (BX)(R11*1)
	ADDQ $32, SI
	LEAQ (DI)(R8*8), DI
	SUBQ $8, CX
	JNZ  trloop
	VZEROUPPER
	RET

// LN_SUM adds tile column (imm, hi, lo) — VPERM2F128 of quads hi and lo,
// one value per row — to the row sums in Y12.
#define LN_SUM(imm, hi, lo) \
	VPERM2F128 imm, hi, lo, Y8; \
	VADDPS Y8, Y12, Y12

// LN_DEV adds the squared deviation of tile column (imm, hi, lo) from
// the row means in Y13 to the row sums in Y14: d = x − mean, then d·d,
// then the add, each rounded.
#define LN_DEV(imm, hi, lo) \
	VPERM2F128 imm, hi, lo, Y8; \
	VSUBPS Y13, Y8, Y8; \
	VMULPS Y8, Y8, Y8; \
	VADDPS Y8, Y14, Y14

// func layerNormStats8AVX2(src *float32, c int, fc float32, mean, ss *float32)
// For the 8 rows of c floats at src (c a positive multiple of 8):
// mean[l] = (Σ_j row_l[j]) / fc and ss[l] = Σ_j (row_l[j] − mean[l])², each
// sum one ascending float32 chain, as the scalar loops compute them, with
// the eight rows in the lanes of one vector: every 8×8 tile is
// transposed so that column j arrives as one vector, and columns are
// added in ascending j. Two passes, one per chain.
//
// Registers: DI rows, SI/DX tile (TR_QUADS), R9 row stride in bytes, R10
// three strides, CX c, BX columns left, Y12 sums, Y13 means, Y14 squared
// deviations.
TEXT ·layerNormStats8AVX2(SB), NOSPLIT, $0-40
	MOVQ src+0(FP), DI
	MOVQ c+8(FP), CX
	MOVQ CX, R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10
	VXORPS Y12, Y12, Y12
	MOVQ DI, SI
	MOVQ CX, BX

lnmean:
	LEAQ (SI)(R9*4), DX
	TR_QUADS
	LN_SUM($0x20, Y4, Y0)
	LN_SUM($0x20, Y5, Y1)
	LN_SUM($0x20, Y6, Y2)
	LN_SUM($0x20, Y7, Y3)
	LN_SUM($0x31, Y4, Y0)
	LN_SUM($0x31, Y5, Y1)
	LN_SUM($0x31, Y6, Y2)
	LN_SUM($0x31, Y7, Y3)
	ADDQ $32, SI
	SUBQ $8, BX
	JNZ  lnmean

	VBROADCASTSS fc+16(FP), Y13
	VDIVPS Y13, Y12, Y13
	MOVQ mean+24(FP), AX
	VMOVUPS Y13, (AX)
	VXORPS Y14, Y14, Y14
	MOVQ DI, SI
	MOVQ CX, BX

lnvar:
	LEAQ (SI)(R9*4), DX
	TR_QUADS
	LN_DEV($0x20, Y4, Y0)
	LN_DEV($0x20, Y5, Y1)
	LN_DEV($0x20, Y6, Y2)
	LN_DEV($0x20, Y7, Y3)
	LN_DEV($0x31, Y4, Y0)
	LN_DEV($0x31, Y5, Y1)
	LN_DEV($0x31, Y6, Y2)
	LN_DEV($0x31, Y7, Y3)
	ADDQ $32, SI
	SUBQ $8, BX
	JNZ  lnvar

	MOVQ ss+32(FP), AX
	VMOVUPS Y14, (AX)
	VZEROUPPER
	RET
