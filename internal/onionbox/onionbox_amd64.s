// Field kernels for GF(2^255 − 19) on CPUs with BMI2 (MULX) and ADX
// (ADCX, ADOX).
//
// feMul and feSquare stand in for their Go twins in field.go,
// feMulGeneric and feSquareGeneric, and return the same limbs. Each starts
// by testing ·fieldAsm, which onionbox_amd64.go sets once at start-up from
// CPUID; when it is false the kernel jumps to its Go twin, so the twin is
// the path on a CPU without the extensions. Nothing else here branches,
// and nothing indexes memory by a value.
//
// MULX leaves the flags alone and ADCX and ADOX each touch only one of
// them (CF and OF), so a row of a product runs two carry chains at once:
// the low halves of the limb products on one, the high halves on the
// other. Both kernels form the 512-bit product in R8..R14, CX and end in
// REDUCE38, the three steps of fe.reduceWide.

#include "textflag.h"

// MULFIRST sets t0..t4 = xi·(y0..y3). Clobbers AX, DX.
#define MULFIRST(xi, y0, y1, y2, y3, t0, t1, t2, t3, t4) \
	MOVQ  xi, DX;     \
	MULXQ y0, t0, t1; \
	MULXQ y1, AX, t2; \
	ADDQ  AX, t1;     \
	MULXQ y2, AX, t3; \
	ADCQ  AX, t2;     \
	MULXQ y3, AX, t4; \
	ADCQ  AX, t3;     \
	ADCQ  $0, t4

// MULACC adds xi·(y0..y3) to t0..t3 and sets the new top limb t4. A
// partial schoolbook product never carries out of t4. Clobbers AX, BX, DX.
#define MULACC(xi, y0, y1, y2, y3, t0, t1, t2, t3, t4) \
	MOVQ  xi, DX;     \
	XORQ  AX, AX;     \
	MULXQ y0, AX, BX; \
	ADOXQ AX, t0;     \
	ADCXQ BX, t1;     \
	MULXQ y1, AX, BX; \
	ADOXQ AX, t1;     \
	ADCXQ BX, t2;     \
	MULXQ y2, AX, BX; \
	ADOXQ AX, t2;     \
	ADCXQ BX, t3;     \
	MULXQ y3, AX, t4; \
	ADOXQ AX, t3;     \
	MOVL  $0, AX;     \
	ADCXQ AX, t4;     \
	ADOXQ AX, t4

// REDUCE38 sets R8..R11 to the 512-bit R8..R14, CX mod p, as
// fe.reduceWide does: the low half plus 38 times the high half (low
// halves of the four products on CF, high halves on OF, both chains
// ending in the top word R12), then 38 times that top word added at the
// bottom, then 38 more if that carried out. Clobbers AX, BX, DX, R12.
#define REDUCE38 \
	MOVQ   $38, DX;       \
	XORQ   AX, AX;        \
	MULXQ  R12, AX, BX;   \
	ADCXQ  AX, R8;        \
	ADOXQ  BX, R9;        \
	MULXQ  R13, AX, BX;   \
	ADCXQ  AX, R9;        \
	ADOXQ  BX, R10;       \
	MULXQ  R14, AX, BX;   \
	ADCXQ  AX, R10;       \
	ADOXQ  BX, R11;       \
	MULXQ  CX, AX, R12;   \
	ADCXQ  AX, R11;       \
	MOVL   $0, AX;        \
	ADCXQ  AX, R12;       \
	ADOXQ  AX, R12;       \
	IMUL3Q $38, R12, R12; \
	ADDQ   R12, R8;       \
	ADCQ   $0, R9;        \
	ADCQ   $0, R10;       \
	ADCQ   $0, R11;       \
	SBBQ   AX, AX;        \
	ANDQ   $38, AX;       \
	ADDQ   AX, R8

// STORE4 writes R8..R11 to the element at base.
#define STORE4(base) \
	MOVQ R8, 0(base);   \
	MOVQ R9, 8(base);   \
	MOVQ R10, 16(base); \
	MOVQ R11, 24(base)

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func feMul(v, a, b *fe)
TEXT ·feMul(SB), NOSPLIT, $0-24
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MULFIRST(0(SI), 0(DI), 8(DI), 16(DI), 24(DI), R8, R9, R10, R11, R12)
	MULACC(8(SI), 0(DI), 8(DI), 16(DI), 24(DI), R9, R10, R11, R12, R13)
	MULACC(16(SI), 0(DI), 8(DI), 16(DI), 24(DI), R10, R11, R12, R13, R14)
	MULACC(24(SI), 0(DI), 8(DI), 16(DI), 24(DI), R11, R12, R13, R14, CX)
	REDUCE38
	MOVQ v+0(FP), DI
	STORE4(DI)
	RET

generic:
	JMP ·feMulGeneric(SB)

// func feSquare(v, a *fe)
//
// The six cross products a_i·a_j (i < j) go to words 1 … 6 first: a0's
// row on the plain carry, then a1's and a2's on the two ADX chains. Then
// one pass doubles them on CF (ADCX r, r is a shift left through the
// carry) while OF adds the four squares a_i² at words 2i and 2i + 1.
TEXT ·feSquare(SB), NOSPLIT, $0-16
	CMPB ·fieldAsm(SB), $0
	JEQ  generic
	MOVQ a+8(FP), SI

	MOVQ  0(SI), DX
	MULXQ 8(SI), R9, R10
	MULXQ 16(SI), AX, R11
	ADDQ  AX, R10
	MULXQ 24(SI), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12

	MOVQ  8(SI), DX
	XORQ  R13, R13
	MULXQ 16(SI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 24(SI), AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MOVQ  16(SI), DX
	MULXQ 24(SI), AX, R14
	ADCXQ AX, R13
	MOVL  $0, AX
	ADCXQ AX, R14
	ADOXQ AX, R14

	XORQ  CX, CX
	MOVQ  0(SI), DX
	MULXQ DX, R8, AX
	ADCXQ R9, R9
	ADOXQ AX, R9
	MOVQ  8(SI), DX
	MULXQ DX, AX, BX
	ADCXQ R10, R10
	ADOXQ AX, R10
	ADCXQ R11, R11
	ADOXQ BX, R11
	MOVQ  16(SI), DX
	MULXQ DX, AX, BX
	ADCXQ R12, R12
	ADOXQ AX, R12
	ADCXQ R13, R13
	ADOXQ BX, R13
	MOVQ  24(SI), DX
	MULXQ DX, AX, BX
	ADCXQ R14, R14
	ADOXQ AX, R14
	ADCXQ CX, CX
	ADOXQ BX, CX

	REDUCE38
	MOVQ v+0(FP), DI
	STORE4(DI)
	RET

generic:
	JMP ·feSquareGeneric(SB)
