//go:build amd64

#include "textflag.h"

// Four-lane replicas of math.Exp and of GELU's math.Tanh. Each lane runs
// the scalar library's instruction sequence with the packed form of
// every instruction: the FMA branch of the runtime's exp_amd64.s for
// exp, and math.tanh's three branches for tanh (computed side by side
// and blended per lane). IEEE add, multiply, divide and fused
// multiply-add round the same in every lane as in the scalar forms, so
// the results are bit-identical. A kernel stops at the first 4-lane
// chunk it cannot replicate and returns how many elements it finished;
// the Go wrapper runs that chunk through the scalar library.

// Q4 lays out one float64 constant four times: one 32-byte YMM operand.
#define Q4(off, v) \
	DATA vexpc<>+(off)(SB)/8, v; \
	DATA vexpc<>+(off+8)(SB)/8, v; \
	DATA vexpc<>+(off+16)(SB)/8, v; \
	DATA vexpc<>+(off+24)(SB)/8, v

// exp_amd64.s's constants, spelled as there.
Q4(0, $1.4426950408889634073599246810018920)
Q4(32, $0.69314718055966295651160180568695068359375)
Q4(64, $0.28235290563031577122588448175013436025525412068e-12)
Q4(96, $0.0625)
Q4(128, $2.4801587301587301587e-5)
Q4(160, $1.9841269841269841270e-4)
Q4(192, $1.3888888888888888889e-3)
Q4(224, $8.3333333333333333333e-3)
Q4(256, $4.1666666666666666667e-2)
Q4(288, $1.6666666666666666667e-1)
Q4(320, $0.5)
Q4(352, $1.0)
Q4(384, $2.0)
// 2^52 + 1023: adding it to an integral n in [-1021, 1023] leaves the
// biased exponent n+1023 in the low mantissa bits.
Q4(416, $4503599627371519.0)
// Lane classes: [-708, 709] takes the vector path (math.Exp's exponent
// n+1023 stays in [2, 2046], so its ldexp is the single multiply); at or
// below -746 math.Exp returns +0.
Q4(448, $-708.0)
Q4(480, $709.0)
Q4(512, $-746.0)
// GELU: 0.044715, sqrt(2/pi), 3·0.044715 as Go folds the constant
// product, then math.tanh's constants: 0.625, 0.5·MAXLOG, tanhP, tanhQ.
Q4(544, $0.044715)
Q4(576, $0.7978845608028654)
Q4(608, $0.134145)
Q4(640, $0x7fffffffffffffff)
Q4(672, $0x8000000000000000)
Q4(704, $0.625)
Q4(736, $44.014845965556527147994)
Q4(768, $-9.64399179425052238628e-1)
Q4(800, $-9.92877231001918586564e1)
Q4(832, $-1.61468768441708447952e3)
Q4(864, $1.12811678491632931402e2)
Q4(896, $2.23548839060100448583e3)
Q4(928, $4.84406305325125486048e3)
GLOBL vexpc<>(SB), RODATA|NOPTR, $960

#define LOG2E vexpc<>+0(SB)
#define LN2U vexpc<>+32(SB)
#define LN2L vexpc<>+64(SB)
#define SIXTEENTH vexpc<>+96(SB)
#define T64 vexpc<>+128(SB)
#define T56 vexpc<>+160(SB)
#define T48 vexpc<>+192(SB)
#define T40 vexpc<>+224(SB)
#define T32 vexpc<>+256(SB)
#define T24 vexpc<>+288(SB)
#define HALF vexpc<>+320(SB)
#define ONE vexpc<>+352(SB)
#define TWO vexpc<>+384(SB)
#define EXPBIAS vexpc<>+416(SB)
#define EXPLO vexpc<>+448(SB)
#define EXPHI vexpc<>+480(SB)
#define EXPZERO vexpc<>+512(SB)
#define GELUA vexpc<>+544(SB)
#define GELUC0 vexpc<>+576(SB)
#define GELUK vexpc<>+608(SB)
#define ABSMASK vexpc<>+640(SB)
#define SIGNMASK vexpc<>+672(SB)
#define TANHMID vexpc<>+704(SB)
#define TANHBIG vexpc<>+736(SB)
#define TANHP0 vexpc<>+768(SB)
#define TANHP1 vexpc<>+800(SB)
#define TANHP2 vexpc<>+832(SB)
#define TANHQ0 vexpc<>+864(SB)
#define TANHQ1 vexpc<>+896(SB)
#define TANHQ2 vexpc<>+928(SB)

// EXP_CLASSIFY sets ok to the lanes of x the vector path may write (x in
// [-708, 709], or x ≤ -746) and zero to the x ≤ -746 lanes; msk gets
// ok's four sign bits. NaN lanes are in neither class.
#define EXP_CLASSIFY(x, ok, zero, msk) \
	VCMPPD $0x1d, EXPLO, x, ok; \
	VCMPPD $0x12, EXPHI, x, zero; \
	VANDPD zero, ok, ok; \
	VCMPPD $0x12, EXPZERO, x, zero; \
	VORPD zero, ok, ok; \
	VMOVMSKPD ok, msk

// EXP_CORE replaces x by e^x, lane for lane the avxfma branch of
// exp_amd64.s: n = round(x·log2e) (CVTSD2SL rounds to nearest even, as
// VROUNDPD $0 does); r = x − n·LN2U − n·LN2L through two fused
// negated multiply-adds; r/16; a fused Horner chain for e^r−1; four
// doublings (e^2y−1 = (e^y−1)(e^y−1+2)), the last one's +1 fused; and
// the scaling by 2^n. p and n are clobbered.
#define EXP_CORE(x, p, n) \
	VMULPD LOG2E, x, n; \
	VROUNDPD $0, n, n; \
	VFNMADD231PD LN2U, n, x; \
	VFNMADD231PD LN2L, n, x; \
	VMULPD SIXTEENTH, x, x; \
	VMOVUPD T64, p; \
	VFMADD213PD T56, x, p; \
	VFMADD213PD T48, x, p; \
	VFMADD213PD T40, x, p; \
	VFMADD213PD T32, x, p; \
	VFMADD213PD T24, x, p; \
	VFMADD213PD HALF, x, p; \
	VFMADD213PD ONE, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VMULPD p, x, x; \
	VADDPD TWO, x, p; \
	VFMADD213PD ONE, p, x; \
	VADDPD EXPBIAS, n, n; \
	VPSLLQ $52, n, n; \
	VMULPD n, x, x

// func expAVX2(dst, src *float64, n int) int
// dst[i] = math.Exp(src[i]) for i < n (n a multiple of 4); returns the
// count done before the first chunk holding a lane outside both classes.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

exploop:
	CMPQ AX, CX
	JGE  expdone
	VMOVUPD (SI)(AX*8), Y0
	EXP_CLASSIFY(Y0, Y4, Y5, BX)
	CMPL BX, $15
	JNE  expdone
	EXP_CORE(Y0, Y1, Y2)
	VANDNPD Y0, Y5, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  exploop

expdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func expShift32AVX2(dst, src *float32, n int, shift float32) int
// dst[i] = float32(math.Exp(float64(src[i] - shift))) for i < n (n a
// multiple of 4): the float32 subtraction, the widening and the
// narrowing are the scalar conversions' packed forms. Returns as
// expAVX2 does.
TEXT ·expShift32AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS shift+24(FP), X6
	XORQ AX, AX

e32loop:
	CMPQ AX, CX
	JGE  e32done
	VMOVUPS (SI)(AX*4), X0
	VSUBPS X6, X0, X0
	VCVTPS2PD X0, Y0
	EXP_CLASSIFY(Y0, Y4, Y5, BX)
	CMPL BX, $15
	JNE  e32done
	EXP_CORE(Y0, Y1, Y2)
	VANDNPD Y0, Y5, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP  e32loop

e32done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func geluAVX2(dst, src, deriv *float32, n int) int
// For i < n (n a multiple of 4), with x = float64(src[i]),
// u = c0·(x + 0.044715·x·x·x) and t = math.tanh(u):
//
//	dst[i]   = float32(0.5·x·(1+t))
//	deriv[i] = float32(0.5·(1+t) + 0.5·x·(1−t·t)·c0·(1+3·0.044715·x·x))
//
// each product and sum in Go's left-to-right order with its own
// rounding; deriv is skipped when nil. tanh's three branches run on all
// lanes and are blended by |u|: > 0.5·MAXLOG gives ±1; ≥ 0.625 gives
// ±(1 − 2/(e^{2|u|}+1)); below, u = 0 gives u and otherwise the rational
// approximation. Returns the count done before the first chunk with a
// NaN lane.
//
// Registers: Y0 x, Y1 u, Y2 |u|, Y5 u's sign, Y9 t, Y15 zero.
TEXT ·geluAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ deriv+16(FP), R8
	MOVQ n+24(FP), CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

geluloop:
	CMPQ AX, CX
	JGE  geludone
	VCVTPS2PD (SI)(AX*4), Y0
	VCMPPD $3, Y0, Y0, Y1
	VMOVMSKPD Y1, BX
	TESTL BX, BX
	JNZ  geludone

	// u = c0·(x + ((0.044715·x)·x)·x)
	VMULPD GELUA, Y0, Y1
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD Y1, Y0, Y1
	VMULPD GELUC0, Y1, Y1
	VANDPD ABSMASK, Y1, Y2
	VANDPD SIGNMASK, Y1, Y5

	// Middle branch: ±(1 − 2/(e^{2|u|}+1)) into Y3.
	VADDPD Y2, Y2, Y3
	EXP_CORE(Y3, Y4, Y6)
	VADDPD ONE, Y3, Y3
	VMOVUPD TWO, Y4
	VDIVPD Y3, Y4, Y4
	VMOVUPD ONE, Y3
	VSUBPD Y4, Y3, Y3
	VXORPD Y5, Y3, Y3

	// Small branch: s = u·u; u + u·s·((P0·s+P1)·s+P2)/(((s+Q0)·s+Q1)·s+Q2).
	VMULPD Y1, Y1, Y6
	VMULPD TANHP0, Y6, Y7
	VADDPD TANHP1, Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD TANHP2, Y7, Y7
	VADDPD TANHQ0, Y6, Y8
	VMULPD Y6, Y8, Y8
	VADDPD TANHQ1, Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD TANHQ2, Y8, Y8
	VMULPD Y6, Y1, Y9
	VMULPD Y7, Y9, Y9
	VDIVPD Y8, Y9, Y9
	VADDPD Y9, Y1, Y9

	// Blend: u == 0 keeps u, |u| ≥ 0.625 the middle branch, |u| >
	// 0.5·MAXLOG ±1.
	VCMPPD $0, Y15, Y1, Y10
	VBLENDVPD Y10, Y1, Y9, Y9
	VCMPPD $0x1d, TANHMID, Y2, Y10
	VBLENDVPD Y10, Y3, Y9, Y9
	VCMPPD $0x1e, TANHBIG, Y2, Y10
	VORPD ONE, Y5, Y11
	VBLENDVPD Y10, Y11, Y9, Y9

	// dst = (0.5·x)·(1+t)
	VADDPD ONE, Y9, Y10
	VMULPD HALF, Y0, Y11
	VMULPD Y10, Y11, Y12
	VCVTPD2PSY Y12, X12
	VMOVUPS X12, (DI)(AX*4)

	TESTQ R8, R8
	JZ    gelunext
	// deriv = 0.5·(1+t) + (((0.5·x)·(1−t·t))·c0)·(1+(k·x)·x)
	VMULPD HALF, Y10, Y10
	VMULPD Y9, Y9, Y13
	VMOVUPD ONE, Y14
	VSUBPD Y13, Y14, Y14
	VMULPD Y14, Y11, Y11
	VMULPD GELUC0, Y11, Y11
	VMULPD GELUK, Y0, Y13
	VMULPD Y0, Y13, Y13
	VADDPD ONE, Y13, Y13
	VMULPD Y13, Y11, Y11
	VADDPD Y11, Y10, Y10
	VCVTPD2PSY Y10, X10
	VMOVUPS X10, (R8)(AX*4)

gelunext:
	ADDQ $4, AX
	JMP  geluloop

geludone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET
