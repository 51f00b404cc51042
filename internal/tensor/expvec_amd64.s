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

// Attention softmax constants, by byte offset: the int32 lane indices
// 0–7 (0), eight 8s (32) and four 4s (96) to advance them, eight −Infs
// (64), 1.0 (128), and the tail mask (160): eight set int32 lanes, then
// eight clear ones (left unwritten, so zero); the 8 lanes starting at
// entry 8−n select the first n.
#define D8(off, a, b, c, d, e, f, g, h) \
	DATA smc<>+(off)(SB)/4, a; \
	DATA smc<>+(off+4)(SB)/4, b; \
	DATA smc<>+(off+8)(SB)/4, c; \
	DATA smc<>+(off+12)(SB)/4, d; \
	DATA smc<>+(off+16)(SB)/4, e; \
	DATA smc<>+(off+20)(SB)/4, f; \
	DATA smc<>+(off+24)(SB)/4, g; \
	DATA smc<>+(off+28)(SB)/4, h

D8(0, $0, $1, $2, $3, $4, $5, $6, $7)
D8(32, $8, $8, $8, $8, $8, $8, $8, $8)
D8(64, $0xff800000, $0xff800000, $0xff800000, $0xff800000, $0xff800000, $0xff800000, $0xff800000, $0xff800000)
DATA smc<>+96(SB)/4, $4
DATA smc<>+100(SB)/4, $4
DATA smc<>+104(SB)/4, $4
DATA smc<>+108(SB)/4, $4
DATA smc<>+128(SB)/4, $0x3f800000
D8(160, $0xffffffff, $0xffffffff, $0xffffffff, $0xffffffff, $0xffffffff, $0xffffffff, $0xffffffff, $0xffffffff)
GLOBL smc<>(SB), RODATA|NOPTR, $224

#define SMIOTA smc<>+0(SB)
#define SMEIGHT smc<>+32(SB)
#define SMNEGINF smc<>+64(SB)
#define SMFOUR smc<>+96(SB)
#define SMONE smc<>+128(SB)

// SM_TAILMASK sets Y13 to the mask of the first BX lanes (BX in 1–7);
// R8 and R9 are clobbered.
#define SM_TAILMASK \
	MOVQ $8, R8; \
	SUBQ BX, R8; \
	LEAQ smc<>+160(SB), R9; \
	VMOVDQU (R9)(R8*4), Y13

// SM_SCORE turns the raw scores in Y0 into softmax inputs: Y0·scale
// (Y8), then, when diag (DX) ≥ 0, plus the causal mask: −Inf (Y12) in the
// lanes whose column index (Y10) exceeds diag (Y11), +0 in the others.
// The exp pass uses only the low four lanes. Y1 is clobbered.
#define SM_SCORE(skip) \
	VMULPS Y8, Y0, Y0; \
	TESTQ DX, DX; \
	JS    skip; \
	VPCMPGTD Y11, Y10, Y1; \
	VANDPS Y12, Y1, Y1; \
	VADDPS Y1, Y0, Y0; \
skip:

// SM_EXP4 replaces the four float32 lanes of X0 by their exps through
// the exp replica, or jumps to stop when a lane is outside the replica's
// classes.
#define SM_EXP4(stop) \
	VCVTPS2PD X0, Y0; \
	EXP_CLASSIFY(Y0, Y2, Y4, R8); \
	CMPL R8, $15; \
	JNE  stop; \
	EXP_CORE(Y0, Y2, Y3); \
	VANDNPD Y0, Y4, Y0; \
	VCVTPD2PSY Y0, X0

// func softmaxExpRowAVX2(row *float32, n int, scale float32, diag int) (maxv float32, done int)
// The exps of one attention softmax row in place (n ≥ 1), with s[j] =
// row[j]·scale, plus the causal mask when diag ≥ 0 (+0 for j ≤ diag, −Inf
// past it), in two passes over eight-lane chunks, the last one masked:
//
//  1. maxv = max(s), NaNs skipped: VMAXPS returns its second operand,
//     the running max, when the first is a NaN, so each lane keeps what
//     `v > maxv` keeps, up to the sign of a zero max (harmless: x − (±0)
//     exps alike);
//  2. row[j] = float32(math.Exp(float64(s[j] − maxv))) through the exp
//     replica, s recomputed from the raw scores.
//
// No chain runs the length of the row, so consecutive rows overlap in
// the CPU; the sums are normalizeRowsAVX2's. A chunk the exp replica
// cannot run (a NaN lane, or one in (−746, −708)) ends the kernel: it
// returns maxv and done, the start of that chunk, with row[:done]
// holding exps and row[done:] the raw scores, and the caller finishes
// the row. Otherwise done = n.
//
// Registers: DI row, CX n, DX diag, AX index, BX next index or lanes
// left, Y6 maxv, Y8 scale, Y9 running max, Y10 column indices, Y11
// diag, Y12 −Inf, Y13 tail mask, Y15 zero.
TEXT ·softmaxExpRowAVX2(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS scale+16(FP), Y8
	MOVQ diag+24(FP), DX
	VMOVUPS SMNEGINF, Y12
	VMOVAPS Y12, Y9
	VMOVDQU SMIOTA, Y10
	VMOVQ DX, X11
	VPBROADCASTD X11, Y11
	VXORPS Y15, Y15, Y15
	XORQ AX, AX

smmax:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JGT  smmaxtail
	VMOVUPS (DI)(AX*4), Y0
	SM_SCORE(smmaxscored)
	VMAXPS Y9, Y0, Y9
	VPADDD SMEIGHT, Y10, Y10
	MOVQ BX, AX
	JMP  smmax

smmaxtail:
	MOVQ CX, BX
	SUBQ AX, BX
	JZ   smreduce
	SM_TAILMASK
	VMASKMOVPS (DI)(AX*4), Y13, Y0
	SM_SCORE(smmaxtailscored)
	VBLENDVPS Y13, Y0, Y12, Y0
	VMAXPS Y9, Y0, Y9

smreduce:
	VEXTRACTF128 $1, Y9, X1
	VMAXPS X9, X1, X9
	VPERMILPS $0x4e, X9, X1
	VMAXPS X9, X1, X9
	VPERMILPS $0xb1, X9, X1
	VMAXPS X9, X1, X9
	VMOVSS X9, maxv+32(FP)
	VBROADCASTSS X9, Y6
	VMOVDQU SMIOTA, Y10
	XORQ AX, AX

smexp:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  smexptail
	VMOVUPS (DI)(AX*4), X0
	SM_SCORE(smexpscored)
	VSUBPS X6, X0, X0
	SM_EXP4(smstop)
	VMOVUPS X0, (DI)(AX*4)
	VPADDD SMFOUR, X10, X10
	MOVQ BX, AX
	JMP  smexp

smexptail:
	MOVQ CX, BX
	SUBQ AX, BX
	JZ   smdone
	SM_TAILMASK
	VMASKMOVPS (DI)(AX*4), X13, X0
	SM_SCORE(smexptailscored)
	VSUBPS X6, X0, X0
	// Padding lanes exp 0.
	VBLENDVPS X13, X0, X15, X0
	SM_EXP4(smstop)
	// Lane by lane: a masked store would hold up the next row's loads,
	// which cannot take their data from it.
	LEAQ (DI)(AX*4), SI
	VMOVSS X0, (SI)
	CMPQ BX, $1
	JEQ  smdone
	VEXTRACTPS $1, X0, 4(SI)
	CMPQ BX, $2
	JEQ  smdone
	VEXTRACTPS $2, X0, 8(SI)

smdone:
	MOVQ CX, done+40(FP)
	VZEROUPPER
	RET

smstop:
	MOVQ AX, done+40(FP)
	VZEROUPPER
	RET

// NR_SCALEROW multiplies the c (CX) floats at R9 by the factor in every
// lane of Y3, eight at a time, the last c%8 through the mask in Y13. AX,
// SI and Y4 are clobbered.
#define NR_SCALEROW(loop, tail, done) \
	XORQ AX, AX; \
loop: \
	LEAQ 8(AX), SI; \
	CMPQ SI, CX; \
	JGT  tail; \
	VMULPS (R9)(AX*4), Y3, Y4; \
	VMOVUPS Y4, (R9)(AX*4); \
	MOVQ SI, AX; \
	JMP  loop; \
tail: \
	CMPQ AX, CX; \
	JEQ  done; \
	VMULSS (R9)(AX*4), X3, X4; \
	VMOVSS X4, (R9)(AX*4); \
	INCQ AX; \
	JMP tail; \
done:

// func normalizeRowsAVX2(p *float32, r, c int)
// For each row of the r×c block p (r, c ≥ 1): sum = Σ row[j] in float32,
// ascending j, then row[j] *= 1/sum when sum > 0. With eight or more rows
// they go eight at a time: the eight sums are scalar chains advanced
// side by side, each still one ascending chain; they become one vector
// of factors, 1/sum or 1 where the sum is not positive (x·1 = x for every
// exp, none being a signalling NaN); and each row is scaled by its own
// factor in eight-lane chunks, the last one masked. A last group short
// of eight rows moves back to end at row r and skips the rows it
// overlaps, which are done. Fewer than eight rows take one chain each.
//
// Registers: DI group's row 0, DX its row 4, R9 row cursor, R10 row
// stride in bytes, R11 three strides, R12 rows left, R13 first row of
// the group to scale, CX c, BX row index, X0–X7 the sums, Y2 the
// factors, Y3 one row's factor, Y13 tail mask, Y14 ones, Y15 zero.
TEXT ·normalizeRowsAVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ r+8(FP), R12
	MOVQ c+16(FP), CX
	MOVQ CX, R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R11
	VXORPS Y15, Y15, Y15
	VBROADCASTSS SMONE, Y14
	MOVQ CX, BX
	ANDQ $7, BX
	JZ   nrstart
	SM_TAILMASK

nrstart:
	CMPQ R12, $8
	JLT  nrsingle
	XORQ R13, R13

nrgroup:
	MOVQ DI, R9
	LEAQ (DI)(R10*4), DX
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	MOVQ CX, AX

nrsum:
	VADDSS (R9), X0, X0
	VADDSS (R9)(R10*1), X1, X1
	VADDSS (R9)(R10*2), X2, X2
	VADDSS (R9)(R11*1), X3, X3
	VADDSS (DX), X4, X4
	VADDSS (DX)(R10*1), X5, X5
	VADDSS (DX)(R10*2), X6, X6
	VADDSS (DX)(R11*1), X7, X7
	ADDQ $4, R9
	ADDQ $4, DX
	DECQ AX
	JNZ  nrsum

	// Y0 = the eight sums; Y2 = their factors.
	VUNPCKLPS X1, X0, X0
	VUNPCKLPS X3, X2, X2
	VMOVLHPS X2, X0, X0
	VUNPCKLPS X5, X4, X4
	VUNPCKLPS X7, X6, X6
	VMOVLHPS X6, X4, X4
	VINSERTF128 $1, X4, Y0, Y0
	VCMPPS $0x1e, Y15, Y0, Y1
	VDIVPS Y0, Y14, Y2
	VBLENDVPS Y1, Y2, Y14, Y2

	MOVQ R13, BX
	MOVQ R13, R9
	IMULQ R10, R9
	ADDQ DI, R9

nrrow:
	VMOVQ BX, X3
	VPBROADCASTD X3, Y3
	VPERMPS Y2, Y3, Y3
	NR_SCALEROW(nrcol, nrcoltail, nrcoldone)
	ADDQ R10, R9
	INCQ BX
	CMPQ BX, $8
	JLT  nrrow

	LEAQ (DI)(R10*8), DI
	SUBQ $8, R12
	JZ   nrdone
	XORQ R13, R13
	CMPQ R12, $8
	JGE  nrgroup
	// The last group ends at row r: it starts 8−R12 rows back, and
	// those rows are already scaled.
	MOVQ $8, R13
	SUBQ R12, R13
	MOVQ R13, AX
	IMULQ R10, AX
	SUBQ AX, DI
	MOVQ $8, R12
	JMP  nrgroup

nrsingle:
	MOVQ DI, R9

nrsrow:
	VXORPS X0, X0, X0
	MOVQ R9, DX
	MOVQ CX, AX

nrssum:
	VADDSS (DX), X0, X0
	ADDQ $4, DX
	DECQ AX
	JNZ  nrssum
	VCMPPS $0x1e, X15, X0, X1
	VDIVSS X0, X14, X2
	VBLENDVPS X1, X2, X14, X2
	VBROADCASTSS X2, Y3
	NR_SCALEROW(nrscol, nrscoltail, nrscoldone)
	ADDQ R10, R9
	DECQ R12
	JNZ  nrsrow

nrdone:
	VZEROUPPER
	RET
