// Base-field kernels for CPUs with BMI2 (MULX) and ADX (ADCX, ADOX).
//
// Each exported kernel stands in for its Go twin, the function in fe.go
// or fe2.go named after it plus "Generic", and returns the same bits.
// Each starts by testing ·fieldAsm, which fe_amd64.go sets once at
// start-up from CPUID; when it is false the kernel jumps to its Go twin,
// so the twin is the path on a CPU without the extensions. Nothing else
// here branches, and nothing indexes memory by a value: reductions end in
// CMOV on the borrow of a trial subtraction, or in a mask built from it.
//
// MULX leaves the flags alone and ADCX and ADOX each touch only one of
// them (CF and OF), so a row of a product runs two carry chains at once:
// the low halves of the four limb products on one, the high halves on
// the other. Temporaries live in registers and, for the Fp2 kernels, the frame.

#include "textflag.h"

// P, least significant limb first, then −P⁻¹ mod 2⁶⁴ and feReduce5's
// quotient estimator feRecip: copies of fe.go's constants, which the
// start-up check derives from P; a copy that differed would fail every
// kernel-against-twin test.
DATA feModulus<>+0(SB)/8, $0x3c208c16d87cfd47
DATA feModulus<>+8(SB)/8, $0x97816a916871ca8d
DATA feModulus<>+16(SB)/8, $0xb85045b68181585d
DATA feModulus<>+24(SB)/8, $0x30644e72e131a029
DATA feModulus<>+32(SB)/8, $0x87d20782e4866389
DATA feModulus<>+40(SB)/8, $0xa948e8c4c4740939
GLOBL feModulus<>(SB), RODATA|NOPTR, $48

#define P0 feModulus<>+0(SB)
#define P1 feModulus<>+8(SB)
#define P2 feModulus<>+16(SB)
#define P3 feModulus<>+24(SB)
#define NP feModulus<>+32(SB)
#define RECIP feModulus<>+40(SB)

// MULFIRST sets t0..t4 = xi·(y0..y3). Clobbers AX, DX.
#define MULFIRST(xi, y0, y1, y2, y3, t0, t1, t2, t3, t4) \
	MOVQ  xi, DX;      \
	MULXQ y0, t0, t1;  \
	MULXQ y1, AX, t2;  \
	ADDQ  AX, t1;      \
	MULXQ y2, AX, t3;  \
	ADCQ  AX, t2;      \
	MULXQ y3, AX, t4;  \
	ADCQ  AX, t3;      \
	ADCQ  $0, t4

// MULACC adds xi·(y0..y3) to t0..t3 and sets the new top limb t4. The
// caller's bounds keep the sum under 2³²⁰, so nothing carries out of t4.
// Clobbers AX, BX, DX.
#define MULACC(xi, y0, y1, y2, y3, t0, t1, t2, t3, t4) \
	MOVQ  xi, DX;      \
	XORQ  AX, AX;      \
	MULXQ y0, AX, BX;  \
	ADOXQ AX, t0;      \
	ADCXQ BX, t1;      \
	MULXQ y1, AX, BX;  \
	ADOXQ AX, t1;      \
	ADCXQ BX, t2;      \
	MULXQ y2, AX, BX;  \
	ADOXQ AX, t2;      \
	ADCXQ BX, t3;      \
	MULXQ y3, AX, t4;  \
	ADOXQ AX, t3;      \
	MOVL  $0, AX;      \
	ADCXQ AX, t4;      \
	ADOXQ AX, t4

// MULWIDE sets R8..R14, CX to the 512-bit product (x0..x3)·(y0..y3),
// least significant limb first. Clobbers AX, BX, DX.
#define MULWIDE(x0, x1, x2, x3, y0, y1, y2, y3) \
	MULFIRST(x0, y0, y1, y2, y3, R8, R9, R10, R11, R12);   \
	MULACC(x1, y0, y1, y2, y3, R9, R10, R11, R12, R13);    \
	MULACC(x2, y0, y1, y2, y3, R10, R11, R12, R13, R14);   \
	MULACC(x3, y0, y1, y2, y3, R11, R12, R13, R14, CX)

// REDSTEP adds m·P to t0..t4 with m = t0·(−P⁻¹) mod 2⁶⁴, which zeroes
// t0: one row of the interleaved Montgomery product. The caller's bounds
// keep the sum under 2³²⁰. Clobbers AX, BX, DX.
#define REDSTEP(t0, t1, t2, t3, t4) \
	MOVQ  t0, DX;      \
	IMULQ NP, DX;      \
	XORQ  AX, AX;      \
	MULXQ P0, AX, BX;  \
	ADCXQ AX, t0;      \
	ADOXQ BX, t1;      \
	MULXQ P1, AX, BX;  \
	ADCXQ AX, t1;      \
	ADOXQ BX, t2;      \
	MULXQ P2, AX, BX;  \
	ADCXQ AX, t2;      \
	ADOXQ BX, t3;      \
	MULXQ P3, AX, BX;  \
	ADCXQ AX, t3;      \
	ADOXQ BX, t4;      \
	MOVL  $0, AX;      \
	ADCXQ AX, t4

// REDROUND sets r1, r2, r3, r0 to (r0..r3 + m·P)/2⁶⁴ with m = r0·(−P⁻¹)
// mod 2⁶⁴: one round of a Montgomery reduction, the result rotated one
// register along. For r < 2²⁵⁶ the result is < 2¹⁹² + P < 2²⁵⁶.
// Clobbers AX, BX, DX.
#define REDROUND(r0, r1, r2, r3) \
	MOVQ  r0, DX;      \
	IMULQ NP, DX;      \
	XORQ  AX, AX;      \
	MULXQ P0, AX, BX;  \
	ADCXQ AX, r0;      \
	ADOXQ BX, r1;      \
	MULXQ P1, AX, BX;  \
	ADCXQ AX, r1;      \
	ADOXQ BX, r2;      \
	MULXQ P2, AX, BX;  \
	ADCXQ AX, r2;      \
	ADOXQ BX, r3;      \
	MULXQ P3, AX, r0;  \
	ADCXQ AX, r3;      \
	MOVL  $0, AX;      \
	ADCXQ AX, r0;      \
	ADOXQ AX, r0

// CONDSUBP sets r0..r3 to r − P if r ≥ P, for r < 2P. s0..s3 are temporaries.
#define CONDSUBP(r0, r1, r2, r3, s0, s1, s2, s3) \
	MOVQ    r0, s0;    \
	SUBQ    P0, s0;    \
	MOVQ    r1, s1;    \
	SBBQ    P1, s1;    \
	MOVQ    r2, s2;    \
	SBBQ    P2, s2;    \
	MOVQ    r3, s3;    \
	SBBQ    P3, s3;    \
	CMOVQCC s0, r0;    \
	CMOVQCC s1, r1;    \
	CMOVQCC s2, r2;    \
	CMOVQCC s3, r3

// MONTREDUCE sets R8..R11 to t·R⁻¹ mod P for the 512-bit t at the eight
// operands, t < P·2²⁵⁶. The four rounds reduce the low half to
// (t_lo + M·P)/2²⁵⁶ ≤ P; adding the high half, < P, gives the value
// feMontReduceGeneric builds, < 2P, and one conditional subtraction
// finishes. Clobbers AX, BX, DX, R12, R13, R14, CX.
#define MONTREDUCE(t0, t1, t2, t3, t4, t5, t6, t7) \
	MOVQ t0, R8;                                       \
	MOVQ t1, R9;                                       \
	MOVQ t2, R10;                                      \
	MOVQ t3, R11;                                      \
	REDROUND(R8, R9, R10, R11);                        \
	REDROUND(R9, R10, R11, R8);                        \
	REDROUND(R10, R11, R8, R9);                        \
	REDROUND(R11, R8, R9, R10);                        \
	ADDQ t4, R8;                                       \
	ADCQ t5, R9;                                       \
	ADCQ t6, R10;                                      \
	ADCQ t7, R11;                                      \
	CONDSUBP(R8, R9, R10, R11, R12, R13, R14, CX)

// STORE8 writes R8..R14, CX to eight consecutive words at off(base).
#define STORE8(base, off) \
	MOVQ R8, (off+0)(base);   \
	MOVQ R9, (off+8)(base);   \
	MOVQ R10, (off+16)(base); \
	MOVQ R11, (off+24)(base); \
	MOVQ R12, (off+32)(base); \
	MOVQ R13, (off+40)(base); \
	MOVQ R14, (off+48)(base); \
	MOVQ CX, (off+56)(base)

// SUB8 subtracts the eight words at off(base) from R8..R14, CX, leaving
// the borrow in CF.
#define SUB8(base, off) \
	SUBQ (off+0)(base), R8;   \
	SBBQ (off+8)(base), R9;   \
	SBBQ (off+16)(base), R10; \
	SBBQ (off+24)(base), R11; \
	SBBQ (off+32)(base), R12; \
	SBBQ (off+40)(base), R13; \
	SBBQ (off+48)(base), R14; \
	SBBQ (off+56)(base), CX

// ADDPMASK adds P & m to r0..r3, for a mask m of all zeros or all ones:
// the add-back after a subtraction that may have borrowed. Clobbers m and
// s0..s2.
#define ADDPMASK(m, r0, r1, r2, r3, s0, s1, s2) \
	MOVQ P0, s0; \
	ANDQ m, s0;  \
	MOVQ P1, s1; \
	ANDQ m, s1;  \
	MOVQ P2, s2; \
	ANDQ m, s2;  \
	ANDQ P3, m;  \
	ADDQ s0, r0; \
	ADCQ s1, r1; \
	ADCQ s2, r2; \
	ADCQ m, r3

// FEADD sets r0..r3 = (a + b) mod P for reduced a, b at the operands.
// s0..s3 are temporaries.
#define FEADD(a0, a1, a2, a3, b0, b1, b2, b3, r0, r1, r2, r3, s0, s1, s2, s3) \
	MOVQ a0, r0; \
	ADDQ b0, r0; \
	MOVQ a1, r1; \
	ADCQ b1, r1; \
	MOVQ a2, r2; \
	ADCQ b2, r2; \
	MOVQ a3, r3; \
	ADCQ b3, r3; \
	CONDSUBP(r0, r1, r2, r3, s0, s1, s2, s3)

// FESUB sets r0..r3 = (a − b) mod P for reduced a, b at the operands:
// the borrow becomes the mask m that adds P back. s0..s2 are temporaries.
#define FESUB(a0, a1, a2, a3, b0, b1, b2, b3, r0, r1, r2, r3, m, s0, s1, s2) \
	MOVQ a0, r0; \
	SUBQ b0, r0; \
	MOVQ a1, r1; \
	SBBQ b1, r1; \
	MOVQ a2, r2; \
	SBBQ b2, r2; \
	MOVQ a3, r3; \
	SBBQ b3, r3; \
	SBBQ m, m;   \
	ADDPMASK(m, r0, r1, r2, r3, s0, s1, s2)

// SUM4 writes the four-limb x + y, for x at xo(x) and y at yo(y), to
// zo(z). The caller's bounds keep it under 2²⁵⁶. Clobbers AX.
#define SUM4(x, xo, y, yo, z, zo) \
	MOVQ (xo+0)(x), AX;  \
	ADDQ (yo+0)(y), AX;  \
	MOVQ AX, (zo+0)(z);  \
	MOVQ (xo+8)(x), AX;  \
	ADCQ (yo+8)(y), AX;  \
	MOVQ AX, (zo+8)(z);  \
	MOVQ (xo+16)(x), AX; \
	ADCQ (yo+16)(y), AX; \
	MOVQ AX, (zo+16)(z); \
	MOVQ (xo+24)(x), AX; \
	ADCQ (yo+24)(y), AX; \
	MOVQ AX, (zo+24)(z)

// func feMul(z, x, y *fe)
TEXT ·feMul(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	JMP  feMulADX<>(SB)

generic:
	JMP ·feMulGeneric(SB)

// func feSquare(z, x *fe)
TEXT ·feSquare(SB), NOSPLIT, $0-16
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ x+8(FP), SI
	MOVQ SI, DI
	JMP  feMulADX<>(SB)

generic:
	JMP ·feSquareGeneric(SB)

// feMulADX sets z+0(FP) to the Montgomery product of the elements at SI
// and DI: feMulGeneric's interleaved (CIOS) product, with its bounds —
// the element at DI < P, the one at SI any four limbs, t < 2P between
// rows.
TEXT feMulADX<>(SB), NOSPLIT, $0
	MULFIRST(0(SI), 0(DI), 8(DI), 16(DI), 24(DI), R8, R9, R10, R11, R12)
	REDSTEP(R8, R9, R10, R11, R12)
	MULACC(8(SI), 0(DI), 8(DI), 16(DI), 24(DI), R9, R10, R11, R12, R8)
	REDSTEP(R9, R10, R11, R12, R8)
	MULACC(16(SI), 0(DI), 8(DI), 16(DI), 24(DI), R10, R11, R12, R8, R9)
	REDSTEP(R10, R11, R12, R8, R9)
	MULACC(24(SI), 0(DI), 8(DI), 16(DI), 24(DI), R11, R12, R8, R9, R10)
	REDSTEP(R11, R12, R8, R9, R10)
	CONDSUBP(R12, R8, R9, R10, R11, R13, R14, CX)
	MOVQ z+0(FP), DI
	MOVQ R12, 0(DI)
	MOVQ R8, 8(DI)
	MOVQ R9, 16(DI)
	MOVQ R10, 24(DI)
	RET

// func feMontReduce(z *fe, t *feWide)
TEXT ·feMontReduce(SB), NOSPLIT, $0-16
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ t+8(FP), SI
	MONTREDUCE(0(SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	MOVQ z+0(FP), DI
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	RET

generic:
	JMP ·feMontReduceGeneric(SB)

// func fe2WideReduce(e *fe2, w *fe2Wide)
TEXT ·fe2WideReduce(SB), NOSPLIT, $0-16
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ w+8(FP), SI
	MOVQ e+0(FP), DI
	MONTREDUCE(0(SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	MONTREDUCE(64(SI), 72(SI), 80(SI), 88(SI), 96(SI), 104(SI), 112(SI), 120(SI))
	MOVQ R8, 32(DI)
	MOVQ R9, 40(DI)
	MOVQ R10, 48(DI)
	MOVQ R11, 56(DI)
	RET

generic:
	JMP ·fe2WideReduceGeneric(SB)

// func fe2WideMul(w *fe2Wide, a, b *fe2)
TEXT ·fe2WideMul(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	JMP  fe2WideMulADX<>(SB)

generic:
	JMP ·fe2WideMulGeneric(SB)

// fe2WideMulADX is fe2WideMulGeneric's Karatsuba: T0 = a0·b0 and
// T1 = a1·b1, c1 = (a0+a1)(b0+b1) − T0 − T1 exact, c0 = T0 − T1 plus
// P·2²⁵⁶ if that borrowed. Frame: a0+a1 at 0, b0+b1 at 32, T1 at 64.
TEXT fe2WideMulADX<>(SB), NOSPLIT, $128-24
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI

	// The sums, < 2P < 2²⁵⁵.
	SUM4(SI, 0, SI, 32, SP, 0)
	SUM4(DI, 0, DI, 32, SP, 32)

	// T1 to the frame, T0 to w.c0.
	MULWIDE(32(SI), 40(SI), 48(SI), 56(SI), 32(DI), 40(DI), 48(DI), 56(DI))
	STORE8(SP, 64)
	MULWIDE(0(SI), 8(SI), 16(SI), 24(SI), 0(DI), 8(DI), 16(DI), 24(DI))
	MOVQ w+0(FP), DI
	STORE8(DI, 0)

	// c1 = (a0+a1)(b0+b1) − T0 − T1.
	MULWIDE(0(SP), 8(SP), 16(SP), 24(SP), 32(SP), 40(SP), 48(SP), 56(SP))
	SUB8(DI, 0)
	SUB8(SP, 64)
	STORE8(DI, 64)

	// c0 = T0 − T1, and P·2²⁵⁶ back if that borrowed: a masked P on the
	// high four limbs.
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ 32(DI), R12
	MOVQ 40(DI), R13
	MOVQ 48(DI), R14
	MOVQ 56(DI), CX
	SUB8(SP, 64)
	SBBQ AX, AX
	ADDPMASK(AX, R12, R13, R14, CX, BX, SI, DX)
	STORE8(DI, 0)
	RET

// func fe2WideSquare(w *fe2Wide, a *fe2)
TEXT ·fe2WideSquare(SB), NOSPLIT, $0-16
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	JMP  fe2WideSquareADX<>(SB)

generic:
	JMP ·fe2WideSquareGeneric(SB)

// fe2WideSquareADX is fe2WideSquareGeneric: c0 = (a0+a1)(a0−a1) with the
// sum unreduced and the difference reduced, c1 = (2a0)·a1 with the double
// unreduced. Frame: a0+a1 at 0, 2a0 at 32, a0−a1 at 64.
TEXT fe2WideSquareADX<>(SB), NOSPLIT, $96-16
	MOVQ a+8(FP), SI

	// a0 + a1 and 2a0, both < 2P < 2²⁵⁵.
	SUM4(SI, 0, SI, 32, SP, 0)
	SUM4(SI, 0, SI, 0, SP, 32)

	// a0 − a1 mod P.
	FESUB(0(SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI), R8, R9, R10, R11, AX, BX, CX, DX)
	MOVQ R8, 64(SP)
	MOVQ R9, 72(SP)
	MOVQ R10, 80(SP)
	MOVQ R11, 88(SP)

	MOVQ w+0(FP), DI
	MULWIDE(0(SP), 8(SP), 16(SP), 24(SP), 64(SP), 72(SP), 80(SP), 88(SP))
	STORE8(DI, 0)
	MULWIDE(32(SP), 40(SP), 48(SP), 56(SP), 32(SI), 40(SI), 48(SI), 56(SI))
	STORE8(DI, 64)
	RET

// func fe2Add(e, a, b *fe2)
TEXT ·fe2Add(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ e+0(FP), DX
	FEADD(0(SI), 8(SI), 16(SI), 24(SI), 0(DI), 8(DI), 16(DI), 24(DI), R8, R9, R10, R11, R12, R13, R14, CX)
	MOVQ R8, 0(DX)
	MOVQ R9, 8(DX)
	MOVQ R10, 16(DX)
	MOVQ R11, 24(DX)
	FEADD(32(SI), 40(SI), 48(SI), 56(SI), 32(DI), 40(DI), 48(DI), 56(DI), R8, R9, R10, R11, R12, R13, R14, CX)
	MOVQ R8, 32(DX)
	MOVQ R9, 40(DX)
	MOVQ R10, 48(DX)
	MOVQ R11, 56(DX)
	RET

generic:
	JMP ·fe2AddGeneric(SB)

// func fe2Sub(e, a, b *fe2)
TEXT ·fe2Sub(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ e+0(FP), DX
	FESUB(0(SI), 8(SI), 16(SI), 24(SI), 0(DI), 8(DI), 16(DI), 24(DI), R8, R9, R10, R11, AX, R12, R13, R14)
	MOVQ R8, 0(DX)
	MOVQ R9, 8(DX)
	MOVQ R10, 16(DX)
	MOVQ R11, 24(DX)
	FESUB(32(SI), 40(SI), 48(SI), 56(SI), 32(DI), 40(DI), 48(DI), 56(DI), R8, R9, R10, R11, AX, R12, R13, R14)
	MOVQ R8, 32(DX)
	MOVQ R9, 40(DX)
	MOVQ R10, 48(DX)
	MOVQ R11, 56(DX)
	RET

generic:
	JMP ·fe2SubGeneric(SB)

// WIDESUBMOD sets the eight words at zo(z) to x − y, plus P·2²⁵⁶ if that
// borrowed, for the 512-bit x at xo(x) and y at yo(y): feWideSubMod. Each
// limb of x and y is read before that limb of z is written, so z may be
// x or y. Clobbers AX, BX, CX, DX, R8..R11.
#define WIDESUBMOD(z, zo, x, xo, y, yo) \
	MOVQ (xo+0)(x), R8;    \
	SUBQ (yo+0)(y), R8;    \
	MOVQ R8, (zo+0)(z);    \
	MOVQ (xo+8)(x), R8;    \
	SBBQ (yo+8)(y), R8;    \
	MOVQ R8, (zo+8)(z);    \
	MOVQ (xo+16)(x), R8;   \
	SBBQ (yo+16)(y), R8;   \
	MOVQ R8, (zo+16)(z);   \
	MOVQ (xo+24)(x), R8;   \
	SBBQ (yo+24)(y), R8;   \
	MOVQ R8, (zo+24)(z);   \
	MOVQ (xo+32)(x), R8;   \
	SBBQ (yo+32)(y), R8;   \
	MOVQ (xo+40)(x), R9;   \
	SBBQ (yo+40)(y), R9;   \
	MOVQ (xo+48)(x), R10;  \
	SBBQ (yo+48)(y), R10;  \
	MOVQ (xo+56)(x), R11;  \
	SBBQ (yo+56)(y), R11;  \
	SBBQ AX, AX;           \
	ADDPMASK(AX, R8, R9, R10, R11, BX, CX, DX); \
	MOVQ R8, (zo+32)(z);   \
	MOVQ R9, (zo+40)(z);   \
	MOVQ R10, (zo+48)(z);  \
	MOVQ R11, (zo+56)(z)

// WIDEADDMOD sets the eight words at zo(z) to x + y, less P·2²⁵⁶ if the
// sum reached it: feWideAddMod, with WIDESUBMOD's aliasing rule.
// Clobbers AX, BX, CX, DX, R8..R11.
#define WIDEADDMOD(z, zo, x, xo, y, yo) \
	MOVQ (xo+0)(x), R8;    \
	ADDQ (yo+0)(y), R8;    \
	MOVQ R8, (zo+0)(z);    \
	MOVQ (xo+8)(x), R8;    \
	ADCQ (yo+8)(y), R8;    \
	MOVQ R8, (zo+8)(z);    \
	MOVQ (xo+16)(x), R8;   \
	ADCQ (yo+16)(y), R8;   \
	MOVQ R8, (zo+16)(z);   \
	MOVQ (xo+24)(x), R8;   \
	ADCQ (yo+24)(y), R8;   \
	MOVQ R8, (zo+24)(z);   \
	MOVQ (xo+32)(x), R8;   \
	ADCQ (yo+32)(y), R8;   \
	MOVQ (xo+40)(x), R9;   \
	ADCQ (yo+40)(y), R9;   \
	MOVQ (xo+48)(x), R10;  \
	ADCQ (yo+48)(y), R10;  \
	MOVQ (xo+56)(x), R11;  \
	ADCQ (yo+56)(y), R11;  \
	CONDSUBP(R8, R9, R10, R11, AX, BX, CX, DX); \
	MOVQ R8, (zo+32)(z);   \
	MOVQ R9, (zo+40)(z);   \
	MOVQ R10, (zo+48)(z);  \
	MOVQ R11, (zo+56)(z)

// func fe2WideSub(w, a, b *fe2Wide)
TEXT ·fe2WideSub(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ w+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R12
	WIDESUBMOD(DI, 0, SI, 0, R12, 0)
	WIDESUBMOD(DI, 64, SI, 64, R12, 64)
	RET

generic:
	JMP ·fe2WideSubGeneric(SB)

// func fe2WideAdd(w, a, b *fe2Wide)
TEXT ·fe2WideAdd(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ w+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R12
	WIDEADDMOD(DI, 0, SI, 0, R12, 0)
	WIDEADDMOD(DI, 64, SI, 64, R12, 64)
	RET

generic:
	JMP ·fe2WideAddGeneric(SB)

// REDUCE5 sets t0..t3 to t mod P for the five-limb t0..t4 < 16P:
// feReduce5's quotient estimate q, then t − q·P < 2P on four limbs and one
// conditional subtraction. Clobbers t4, q0..q3, AX, DX.
#define REDUCE5(t0, t1, t2, t3, t4, q0, q1, q2, q3) \
	MOVQ  t3, DX;         \
	SHRQ  $4, DX;         \
	SHLQ  $60, t4;        \
	ORQ   t4, DX;         \
	MULXQ RECIP, AX, DX;  \
	SHRQ  $57, DX;        \
	MOVQ  P3, q3;         \
	IMULQ DX, q3;         \
	MULXQ P0, q0, q1;     \
	MULXQ P1, AX, q2;     \
	ADDQ  AX, q1;         \
	MULXQ P2, AX, t4;     \
	ADCQ  AX, q2;         \
	ADCQ  t4, q3;         \
	SUBQ  q0, t0;         \
	SBBQ  q1, t1;         \
	SBBQ  q2, t2;         \
	SBBQ  q3, t3;         \
	CONDSUBP(t0, t1, t2, t3, q0, q1, q2, q3)

// NINE4 sets s0..s4 to 9·x for the four limbs at xo(x). Clobbers AX, DX.
#define NINE4(x, xo, s0, s1, s2, s3, s4) \
	MOVQ  $9, DX;               \
	MULXQ (xo+0)(x), s0, s1;    \
	MULXQ (xo+8)(x), AX, s2;    \
	ADDQ  AX, s1;               \
	MULXQ (xo+16)(x), AX, s3;   \
	ADCQ  AX, s2;               \
	MULXQ (xo+24)(x), AX, s4;   \
	ADCQ  AX, s3;               \
	ADCQ  $0, s4

// func fe2MulXi(e, a *fe2)
TEXT ·fe2MulXi(SB), NOSPLIT, $0-16
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	JMP  fe2MulXiADX<>(SB)

generic:
	JMP ·fe2MulXiGeneric(SB)

// fe2MulXiADX is fe2MulXiGeneric: 9a0 + P − a1 and 9a1 + a0, each a
// five-limb value under 10P, reduced once. Frame: the first coefficient,
// held back until the second has read a.
TEXT fe2MulXiADX<>(SB), NOSPLIT, $32-16
	MOVQ a+8(FP), SI
	NINE4(SI, 0, R8, R9, R10, R11, R12)
	ADDQ P0, R8
	ADCQ P1, R9
	ADCQ P2, R10
	ADCQ P3, R11
	ADCQ $0, R12
	SUBQ 32(SI), R8
	SBBQ 40(SI), R9
	SBBQ 48(SI), R10
	SBBQ 56(SI), R11
	SBBQ $0, R12
	REDUCE5(R8, R9, R10, R11, R12, BX, CX, R13, R14)
	MOVQ R8, 0(SP)
	MOVQ R9, 8(SP)
	MOVQ R10, 16(SP)
	MOVQ R11, 24(SP)

	NINE4(SI, 32, R8, R9, R10, R11, R12)
	ADDQ 0(SI), R8
	ADCQ 8(SI), R9
	ADCQ 16(SI), R10
	ADCQ 24(SI), R11
	ADCQ $0, R12
	REDUCE5(R8, R9, R10, R11, R12, BX, CX, R13, R14)
	MOVQ e+0(FP), DI
	MOVQ R8, 32(DI)
	MOVQ R9, 40(DI)
	MOVQ R10, 48(DI)
	MOVQ R11, 56(DI)
	MOVQ 0(SP), R8
	MOVQ 8(SP), R9
	MOVQ 16(SP), R10
	MOVQ 24(SP), R11
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	RET

// NINE8 sets BX, CX, R8..R14 to 9·x for the 512-bit x at xo(x).
// Clobbers AX, DX.
#define NINE8(x, xo) \
	MOVQ  $9, DX;               \
	MULXQ (xo+0)(x), BX, CX;    \
	MULXQ (xo+8)(x), AX, R8;    \
	ADDQ  AX, CX;               \
	MULXQ (xo+16)(x), AX, R9;   \
	ADCQ  AX, R8;               \
	MULXQ (xo+24)(x), AX, R10;  \
	ADCQ  AX, R9;               \
	MULXQ (xo+32)(x), AX, R11;  \
	ADCQ  AX, R10;              \
	MULXQ (xo+40)(x), AX, R12;  \
	ADCQ  AX, R11;              \
	MULXQ (xo+48)(x), AX, R13;  \
	ADCQ  AX, R12;              \
	MULXQ (xo+56)(x), AX, R14;  \
	ADCQ  AX, R13;              \
	ADCQ  $0, R14

// ADD9 adds the 512-bit y at yo(y) to BX, CX, R8..R14.
#define ADD9(y, yo) \
	ADDQ (yo+0)(y), BX;   \
	ADCQ (yo+8)(y), CX;   \
	ADCQ (yo+16)(y), R8;  \
	ADCQ (yo+24)(y), R9;  \
	ADCQ (yo+32)(y), R10; \
	ADCQ (yo+40)(y), R11; \
	ADCQ (yo+48)(y), R12; \
	ADCQ (yo+56)(y), R13; \
	ADCQ $0, R14

// func fe2WideAddMulXi(w, a, b *fe2Wide)
TEXT ·fe2WideAddMulXi(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	JMP  fe2WideAddMulXiADX<>(SB)

generic:
	JMP ·fe2WideAddMulXiGeneric(SB)

// fe2WideAddMulXiADX is fe2WideAddMulXiGeneric: the nine-limb sums
// 9b0 − b1 + a0 + P·2²⁵⁶ and 9b1 + b0 + a1, each < 11·P·2²⁵⁶, keep their
// low four limbs and have their high five reduced mod P, as
// feWideMul9SubAdd and feWideMul9AddAdd do. Frame: the first coefficient,
// held back until the second has read a and b, which w may alias.
TEXT fe2WideAddMulXiADX<>(SB), NOSPLIT, $64-24
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), SI
	NINE8(SI, 0)
	ADD9(DI, 0)
	SUBQ 64(SI), BX
	SBBQ 72(SI), CX
	SBBQ 80(SI), R8
	SBBQ 88(SI), R9
	SBBQ 96(SI), R10
	SBBQ 104(SI), R11
	SBBQ 112(SI), R12
	SBBQ 120(SI), R13
	SBBQ $0, R14
	ADDQ P0, R10
	ADCQ P1, R11
	ADCQ P2, R12
	ADCQ P3, R13
	ADCQ $0, R14
	MOVQ BX, 0(SP)
	MOVQ CX, 8(SP)
	MOVQ R8, 16(SP)
	MOVQ R9, 24(SP)
	REDUCE5(R10, R11, R12, R13, R14, BX, CX, R8, R9)
	MOVQ R10, 32(SP)
	MOVQ R11, 40(SP)
	MOVQ R12, 48(SP)
	MOVQ R13, 56(SP)

	NINE8(SI, 64)
	ADD9(SI, 0)
	ADD9(DI, 64)
	MOVQ w+0(FP), DI
	MOVQ BX, 64(DI)
	MOVQ CX, 72(DI)
	MOVQ R8, 80(DI)
	MOVQ R9, 88(DI)
	REDUCE5(R10, R11, R12, R13, R14, BX, CX, R8, R9)
	MOVQ R10, 96(DI)
	MOVQ R11, 104(DI)
	MOVQ R12, 112(DI)
	MOVQ R13, 120(DI)
	MOVQ 0(SP), R8
	MOVQ 8(SP), R9
	MOVQ 16(SP), R10
	MOVQ 24(SP), R11
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	MOVQ 32(SP), R8
	MOVQ 40(SP), R9
	MOVQ 48(SP), R10
	MOVQ 56(SP), R11
	MOVQ R8, 32(DI)
	MOVQ R9, 40(DI)
	MOVQ R10, 48(DI)
	MOVQ R11, 56(DI)
	RET
