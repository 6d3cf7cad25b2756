// Field kernels for GF(2^255 − 19) on CPUs with BMI2 (MULX) and ADX
// (ADCX, ADOX), and, at the end of the file, the lane ladder's and the
// lane comb's kernels on AVX-512 IFMA.
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
#include "go_asm.h"

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

// The lane ladder on AVX-512 IFMA (lane.go). A lane element is five
// radix-2^51 limbs of eight lanes, one ZMM register a limb; the kernel
// keeps every element of the ladder in laneLadderState and loads it per
// operation. Every limb an operation reads is below 2^52, the width
// VPMADD52LUQ and VPMADD52HUQ multiply (the low and the high 52 bits of a
// 104-bit product, added to a 64-bit accumulator), and every operation
// ends in one carry pass (LANECARRY), which brings any five limbs below
// 2^64 back below 2^51 + 2^18.
//
// In the ladder Z28 holds 2^51 − 1 in every lane, Z29 19, Z30 and Z31 the
// limbs of 2p (2^52 − 38 at limb 0, 2^52 − 2 above); Z0..Z9 are scratch
// and Z10..Z27 the accumulators of a product: L_k, the low halves at
// 2^(51k), in Z(10+k) for k = 0…8, and H_k, the high halves, in Z(18+k)
// for k = 1…9. A high half of a product at 2^(51(i+j)) weighs
// 2^(51(i+j)+52) = 2·2^(51(i+j+1)), so the product is Σ (L_k + 2H_k)
// 2^(51k), and 2^255 ≡ 19 folds k ≥ 5 onto k − 5. With five products of
// 52-bit limbs at most per position, L_k + 2H_k < 15·2^52 and the fold
// stays below 300·2^52 < 2^61.
//
// Nothing branches or indexes memory on a secret: the one branch is the
// loop over the public bit position, and the swap is a mask broadcast
// from the scalar bit, the same in all eight lanes.

DATA laneConst<>+0(SB)/8, $0x7ffffffffffff  // 2^51 − 1
DATA laneConst<>+8(SB)/8, $19
DATA laneConst<>+16(SB)/8, $0xfffffffffffda // 2^52 − 38, 2p's limb 0
DATA laneConst<>+24(SB)/8, $0xffffffffffffe // 2^52 − 2, 2p's limbs 1…4
DATA laneConst<>+32(SB)/8, $121665
GLOBL laneConst<>(SB), RODATA|NOPTR, $40

// The elements of laneLadderState, as offsets from DI.
#define LX2 laneLadderState_x2
#define LZ2 laneLadderState_z2
#define LX3 laneLadderState_x3
#define LZ3 laneLadderState_z3
#define LU laneLadderState_u
#define LA (laneLadderState_tmp+0*320)
#define LAA (laneLadderState_tmp+1*320)
#define LB (laneLadderState_tmp+2*320)
#define LBB (laneLadderState_tmp+3*320)
#define LE (laneLadderState_tmp+4*320)
#define LC (laneLadderState_tmp+5*320)
#define LD (laneLadderState_tmp+6*320)
#define LDA (laneLadderState_tmp+7*320)
#define LCB (laneLadderState_tmp+8*320)

#define LANELOAD(a, r0, r1, r2, r3, r4) \
	VMOVDQU64 a+0(DI), r0;   \
	VMOVDQU64 a+64(DI), r1;  \
	VMOVDQU64 a+128(DI), r2; \
	VMOVDQU64 a+192(DI), r3; \
	VMOVDQU64 a+256(DI), r4

// LANESTORE writes Z10..Z14 to the element at d.
#define LANESTORE(d) \
	VMOVDQU64 Z10, d+0(DI);   \
	VMOVDQU64 Z11, d+64(DI);  \
	VMOVDQU64 Z12, d+128(DI); \
	VMOVDQU64 Z13, d+192(DI); \
	VMOVDQU64 Z14, d+256(DI)

// LANECARRY carries Z10..Z14 once, all limbs at a time: each keeps its
// low 51 bits and gains the carry of the limb below, limb 0 19 times
// limb 4's (below 2^13, so one IFMA multiplies it). Clobbers Z5..Z9.
#define LANECARRY \
	VPSRLQ      $51, Z10, Z5; \
	VPSRLQ      $51, Z11, Z6; \
	VPSRLQ      $51, Z12, Z7; \
	VPSRLQ      $51, Z13, Z8; \
	VPSRLQ      $51, Z14, Z9; \
	VPANDQ      Z28, Z10, Z10; \
	VPANDQ      Z28, Z11, Z11; \
	VPANDQ      Z28, Z12, Z12; \
	VPANDQ      Z28, Z13, Z13; \
	VPANDQ      Z28, Z14, Z14; \
	VPADDQ      Z5, Z11, Z11;  \
	VPADDQ      Z6, Z12, Z12;  \
	VPADDQ      Z7, Z13, Z13;  \
	VPADDQ      Z8, Z14, Z14;  \
	VPMADD52LUQ Z29, Z9, Z10

#define LANEZEROACC \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15; \
	VPXORQ Z16, Z16, Z16; \
	VPXORQ Z17, Z17, Z17; \
	VPXORQ Z18, Z18, Z18; \
	VPXORQ Z19, Z19, Z19; \
	VPXORQ Z20, Z20, Z20; \
	VPXORQ Z21, Z21, Z21; \
	VPXORQ Z22, Z22, Z22; \
	VPXORQ Z23, Z23, Z23; \
	VPXORQ Z24, Z24, Z24; \
	VPXORQ Z25, Z25, Z25; \
	VPXORQ Z26, Z26, Z26; \
	VPXORQ Z27, Z27, Z27

// LANEPROD adds the low and high halves of x·y to the accumulators l
// and h.
#define LANEPROD(x, y, l, h) \
	VPMADD52LUQ y, x, l; \
	VPMADD52HUQ y, x, h

// FOLD19 sets lo += 19·hi (16 + 2 + 1), with t as scratch.
#define FOLD19(lo, hi, t) \
	VPSLLQ $4, hi, t;   \
	VPADDQ hi, lo, lo;  \
	VPADDQ hi, hi, hi;  \
	VPADDQ t, lo, lo;   \
	VPADDQ hi, lo, lo

// LANEREDUCE turns the accumulators into Z10..Z14, carried: L_k += 2H_k,
// then positions 5…9 folded onto 0…4, then LANECARRY.
#define LANEREDUCE \
	VPADDQ Z19, Z19, Z19; \
	VPADDQ Z20, Z20, Z20; \
	VPADDQ Z21, Z21, Z21; \
	VPADDQ Z22, Z22, Z22; \
	VPADDQ Z23, Z23, Z23; \
	VPADDQ Z24, Z24, Z24; \
	VPADDQ Z25, Z25, Z25; \
	VPADDQ Z26, Z26, Z26; \
	VPADDQ Z27, Z27, Z27; \
	VPADDQ Z19, Z11, Z11; \
	VPADDQ Z20, Z12, Z12; \
	VPADDQ Z21, Z13, Z13; \
	VPADDQ Z22, Z14, Z14; \
	VPADDQ Z23, Z15, Z15; \
	VPADDQ Z24, Z16, Z16; \
	VPADDQ Z25, Z17, Z17; \
	VPADDQ Z26, Z18, Z18; \
	FOLD19(Z10, Z15, Z5); \
	FOLD19(Z11, Z16, Z6); \
	FOLD19(Z12, Z17, Z7); \
	FOLD19(Z13, Z18, Z8); \
	FOLD19(Z14, Z27, Z9); \
	LANECARRY

// LANEMUL sets the element at d to a·b; d may be a or b. It counts itself
// in R12.
#define LANEMUL(d, a, b) \
	LANELOAD(a, Z0, Z1, Z2, Z3, Z4); \
	LANELOAD(b, Z5, Z6, Z7, Z8, Z9); \
	LANEZEROACC;                     \
	LANEPROD(Z0, Z5, Z10, Z19);      \
	LANEPROD(Z0, Z6, Z11, Z20);      \
	LANEPROD(Z0, Z7, Z12, Z21);      \
	LANEPROD(Z0, Z8, Z13, Z22);      \
	LANEPROD(Z0, Z9, Z14, Z23);      \
	LANEPROD(Z1, Z5, Z11, Z20);      \
	LANEPROD(Z1, Z6, Z12, Z21);      \
	LANEPROD(Z1, Z7, Z13, Z22);      \
	LANEPROD(Z1, Z8, Z14, Z23);      \
	LANEPROD(Z1, Z9, Z15, Z24);      \
	LANEPROD(Z2, Z5, Z12, Z21);      \
	LANEPROD(Z2, Z6, Z13, Z22);      \
	LANEPROD(Z2, Z7, Z14, Z23);      \
	LANEPROD(Z2, Z8, Z15, Z24);      \
	LANEPROD(Z2, Z9, Z16, Z25);      \
	LANEPROD(Z3, Z5, Z13, Z22);      \
	LANEPROD(Z3, Z6, Z14, Z23);      \
	LANEPROD(Z3, Z7, Z15, Z24);      \
	LANEPROD(Z3, Z8, Z16, Z25);      \
	LANEPROD(Z3, Z9, Z17, Z26);      \
	LANEPROD(Z4, Z5, Z14, Z23);      \
	LANEPROD(Z4, Z6, Z15, Z24);      \
	LANEPROD(Z4, Z7, Z16, Z25);      \
	LANEPROD(Z4, Z8, Z17, Z26);      \
	LANEPROD(Z4, Z9, Z18, Z27);      \
	LANEREDUCE;                      \
	LANESTORE(d);                    \
	INCQ R12

// LANESQUARE sets the element at d to a²; d may be a. The ten cross
// products a_i·a_j (i < j) go in once and are doubled, then the five
// squares a_i² join them. It counts itself in R13.
#define LANESQUARE(d, a) \
	LANELOAD(a, Z0, Z1, Z2, Z3, Z4); \
	LANEZEROACC;                     \
	LANEPROD(Z0, Z1, Z11, Z20);      \
	LANEPROD(Z0, Z2, Z12, Z21);      \
	LANEPROD(Z0, Z3, Z13, Z22);      \
	LANEPROD(Z0, Z4, Z14, Z23);      \
	LANEPROD(Z1, Z2, Z13, Z22);      \
	LANEPROD(Z1, Z3, Z14, Z23);      \
	LANEPROD(Z1, Z4, Z15, Z24);      \
	LANEPROD(Z2, Z3, Z15, Z24);      \
	LANEPROD(Z2, Z4, Z16, Z25);      \
	LANEPROD(Z3, Z4, Z17, Z26);      \
	VPADDQ Z11, Z11, Z11;            \
	VPADDQ Z12, Z12, Z12;            \
	VPADDQ Z13, Z13, Z13;            \
	VPADDQ Z14, Z14, Z14;            \
	VPADDQ Z15, Z15, Z15;            \
	VPADDQ Z16, Z16, Z16;            \
	VPADDQ Z17, Z17, Z17;            \
	VPADDQ Z20, Z20, Z20;            \
	VPADDQ Z21, Z21, Z21;            \
	VPADDQ Z22, Z22, Z22;            \
	VPADDQ Z23, Z23, Z23;            \
	VPADDQ Z24, Z24, Z24;            \
	VPADDQ Z25, Z25, Z25;            \
	VPADDQ Z26, Z26, Z26;            \
	LANEPROD(Z0, Z0, Z10, Z19);      \
	LANEPROD(Z1, Z1, Z12, Z21);      \
	LANEPROD(Z2, Z2, Z14, Z23);      \
	LANEPROD(Z3, Z3, Z16, Z25);      \
	LANEPROD(Z4, Z4, Z18, Z27);      \
	LANEREDUCE;                      \
	LANESTORE(d);                    \
	INCQ R13

// LANEADD sets the element at d to a + b.
#define LANEADD(d, a, b) \
	LANELOAD(a, Z10, Z11, Z12, Z13, Z14); \
	VPADDQ b+0(DI), Z10, Z10;             \
	VPADDQ b+64(DI), Z11, Z11;            \
	VPADDQ b+128(DI), Z12, Z12;           \
	VPADDQ b+192(DI), Z13, Z13;           \
	VPADDQ b+256(DI), Z14, Z14;           \
	LANECARRY;                            \
	LANESTORE(d)

// LANESUB sets the element at d to a + 2p − b; every limb of b is below
// 2p's, so no limb goes negative.
#define LANESUB(d, a, b) \
	LANELOAD(a, Z10, Z11, Z12, Z13, Z14); \
	VPADDQ Z30, Z10, Z10;                 \
	VPADDQ Z31, Z11, Z11;                 \
	VPADDQ Z31, Z12, Z12;                 \
	VPADDQ Z31, Z13, Z13;                 \
	VPADDQ Z31, Z14, Z14;                 \
	VPSUBQ b+0(DI), Z10, Z10;             \
	VPSUBQ b+64(DI), Z11, Z11;            \
	VPSUBQ b+128(DI), Z12, Z12;           \
	VPSUBQ b+192(DI), Z13, Z13;           \
	VPSUBQ b+256(DI), Z14, Z14;           \
	LANECARRY;                            \
	LANESTORE(d)

// LANEA24 sets the element at d to 121665·e + a. The high half of
// e_k·121665 (below 2^17) weighs 2 at limb k + 1, and 38 at limb 0 for
// k = 4.
#define LANEA24(d, e, a) \
	LANELOAD(a, Z10, Z11, Z12, Z13, Z14);           \
	LANELOAD(e, Z0, Z1, Z2, Z3, Z4);                \
	VPBROADCASTQ laneConst<>+32(SB), Z5;            \
	VPXORQ       Z15, Z15, Z15;                     \
	VPXORQ       Z16, Z16, Z16;                     \
	VPXORQ       Z17, Z17, Z17;                     \
	VPXORQ       Z18, Z18, Z18;                     \
	VPXORQ       Z19, Z19, Z19;                     \
	LANEPROD(Z0, Z5, Z10, Z15);                     \
	LANEPROD(Z1, Z5, Z11, Z16);                     \
	LANEPROD(Z2, Z5, Z12, Z17);                     \
	LANEPROD(Z3, Z5, Z13, Z18);                     \
	LANEPROD(Z4, Z5, Z14, Z19);                     \
	VPADDQ       Z15, Z15, Z15;                     \
	VPADDQ       Z16, Z16, Z16;                     \
	VPADDQ       Z17, Z17, Z17;                     \
	VPADDQ       Z18, Z18, Z18;                     \
	VPADDQ       Z19, Z19, Z19;                     \
	VPADDQ       Z15, Z11, Z11;                     \
	VPADDQ       Z16, Z12, Z12;                     \
	VPADDQ       Z17, Z13, Z13;                     \
	VPADDQ       Z18, Z14, Z14;                     \
	VPMADD52LUQ  Z29, Z19, Z10;                     \
	LANECARRY;                                      \
	LANESTORE(d)

// LANECSWAP1 swaps the limbs at x+off and y+off where Z9 is all ones.
#define LANECSWAP1(x, y, off) \
	VMOVDQU64 x+off(DI), Z0; \
	VMOVDQU64 y+off(DI), Z1; \
	VPXORQ    Z0, Z1, Z2;    \
	VPANDQ    Z9, Z2, Z2;    \
	VPXORQ    Z2, Z0, Z0;    \
	VPXORQ    Z2, Z1, Z1;    \
	VMOVDQU64 Z0, x+off(DI); \
	VMOVDQU64 Z1, y+off(DI)

// LANECSWAP swaps (x2, z2) with (x3, z3) where AX is all ones, and
// leaves them where it is zero; all lanes alike.
#define LANECSWAP \
	VPBROADCASTQ AX, Z9;        \
	LANECSWAP1(LX2, LX3, 0);    \
	LANECSWAP1(LX2, LX3, 64);   \
	LANECSWAP1(LX2, LX3, 128);  \
	LANECSWAP1(LX2, LX3, 192);  \
	LANECSWAP1(LX2, LX3, 256);  \
	LANECSWAP1(LZ2, LZ3, 0);    \
	LANECSWAP1(LZ2, LZ3, 64);   \
	LANECSWAP1(LZ2, LZ3, 128);  \
	LANECSWAP1(LZ2, LZ3, 192);  \
	LANECSWAP1(LZ2, LZ3, 256)

// func laneLadderKernel(s *laneLadderState, k *[32]byte)
//
// ladder's 255 steps on the eight lanes of s, for the clamped scalar k,
// from (x2, z2, x3, z3) as laneLadder sets them. It leaves the counts of
// its multiplications and squarings in s.muls and s.squares, and clears
// every vector register it used before it returns.
TEXT ·laneLadderKernel(SB), NOSPLIT, $0-16
	MOVQ s+0(FP), DI
	MOVQ k+8(FP), SI
	VPBROADCASTQ laneConst<>+0(SB), Z28
	VPBROADCASTQ laneConst<>+8(SB), Z29
	VPBROADCASTQ laneConst<>+16(SB), Z30
	VPBROADCASTQ laneConst<>+24(SB), Z31
	XORQ R12, R12
	XORQ R13, R13
	XORQ BX, BX     // the swap the last step left
	MOVQ $254, R8   // t, the bit position

step:
	// bit = k[t/8] >> (t%8) & 1; swap the points if it differs from the
	// last bit.
	MOVQ    R8, AX
	SHRQ    $3, AX
	MOVBQZX (SI)(AX*1), DX
	MOVQ    R8, CX
	ANDQ    $7, CX
	SHRQ    CX, DX
	ANDQ    $1, DX
	XORQ    DX, BX
	MOVQ    BX, AX
	NEGQ    AX
	MOVQ    DX, BX
	LANECSWAP

	LANEADD(LA, LX2, LZ2)
	LANESQUARE(LAA, LA)
	LANESUB(LB, LX2, LZ2)
	LANESQUARE(LBB, LB)
	LANESUB(LE, LAA, LBB)
	LANEADD(LC, LX3, LZ3)
	LANESUB(LD, LX3, LZ3)
	LANEMUL(LDA, LD, LA)
	LANEMUL(LCB, LC, LB)
	LANEADD(LX3, LDA, LCB)
	LANESQUARE(LX3, LX3)
	LANESUB(LZ3, LDA, LCB)
	LANESQUARE(LZ3, LZ3)
	LANEMUL(LZ3, LZ3, LU)
	LANEMUL(LX2, LAA, LBB)
	LANEA24(LA, LE, LAA)
	LANEMUL(LZ2, LE, LA)

	DECQ R8
	JGE  step

	MOVQ BX, AX
	NEGQ AX
	LANECSWAP
	MOVQ R12, laneLadderState_muls(DI)
	MOVQ R13, laneLadderState_squares(DI)
	XORQ AX, AX
	XORQ BX, BX
	XORQ DX, DX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	VZEROUPPER
	RET

// The lane comb on AVX-512 IFMA (lane.go): combTable.scalarMult on eight
// scalars at once, for one fixed point. Every lane walks the same table,
// the point's laneCombTable, and brings its own signed digits, so a
// window's lookup is per lane: the kernel loads the eight lanes' digits
// (VPMOVSXBQ), compares their absolute values with 1 … 8 into K1, and
// for each entry broadcasts its 15 limbs and merges them, under K1, into
// the lanes that picked it, on top of the identity (1, 1, 0), which digit
// 0 keeps. Lanes with a negative digit (K2) swap y+x with y−x and take
// 2p − 2dxy. Every limb of every entry of the window is loaded, unmasked,
// for every group, so the addresses the kernel reads and whether it reads
// them depend on the window and the entry, never on a digit; the masks
// act on registers only. The
// point arithmetic is completed.addNiels, completed.double and point.set
// on the lane field of the lane ladder above: the same macros, constants
// and bounds, with the elements in laneCombState.
//
// Table limbs are below 2^51 and 2p − 2dxy's below 2^52, so every
// operand of LANEMUL and LANESQUARE stays below 2^52, as in the ladder.

DATA laneDigit<>+0(SB)/8, $1
DATA laneDigit<>+8(SB)/8, $2
DATA laneDigit<>+16(SB)/8, $3
DATA laneDigit<>+24(SB)/8, $4
DATA laneDigit<>+32(SB)/8, $5
DATA laneDigit<>+40(SB)/8, $6
DATA laneDigit<>+48(SB)/8, $7
DATA laneDigit<>+56(SB)/8, $8
GLOBL laneDigit<>(SB), RODATA|NOPTR, $64

// The elements of laneCombState, as offsets from DI.
#define PTX laneCombState_x
#define PTY laneCombState_y
#define PTZ laneCombState_z
#define PTT laneCombState_t
#define NYP (laneCombState_n+0*320)
#define NYM (laneCombState_n+1*320)
#define NT2D (laneCombState_n+2*320)
#define TA (laneCombState_tmp+0*320)
#define TB (laneCombState_tmp+1*320)
#define TC (laneCombState_tmp+2*320)
#define TD (laneCombState_tmp+3*320)
#define EX (laneCombState_tmp+4*320)
#define EY (laneCombState_tmp+5*320)
#define EZ (laneCombState_tmp+6*320)
#define ET (laneCombState_tmp+7*320)

// LANEPICK1 broadcasts the limb at off(R9) and merges it into r in the
// lanes K1 marks. The load itself is unmasked: it happens whatever K1
// holds. Clobbers Z4.
#define LANEPICK1(off, r) \
	VPBROADCASTQ off(R9), Z4; \
	VMOVDQA64    Z4, K1, r

// LANEPICK merges the 15 limbs of entry d, at e(R9), into the lanes of
// Z10..Z24 whose absolute digit, in Z0, is d; laneDigit<>+k holds d.
#define LANEPICK(k, e) \
	VPBROADCASTQ laneDigit<>+k(SB), Z1; \
	VPCMPEQQ     Z1, Z0, K1;            \
	LANEPICK1((e+0), Z10);              \
	LANEPICK1((e+8), Z11);              \
	LANEPICK1((e+16), Z12);             \
	LANEPICK1((e+24), Z13);             \
	LANEPICK1((e+32), Z14);             \
	LANEPICK1((e+40), Z15);             \
	LANEPICK1((e+48), Z16);             \
	LANEPICK1((e+56), Z17);             \
	LANEPICK1((e+64), Z18);             \
	LANEPICK1((e+72), Z19);             \
	LANEPICK1((e+80), Z20);             \
	LANEPICK1((e+88), Z21);             \
	LANEPICK1((e+96), Z22);             \
	LANEPICK1((e+104), Z23);            \
	LANEPICK1((e+112), Z24)

// LANENEG1 swaps a limb p of y+x with its limb m of y−x where K2 is set.
// Clobbers Z1.
#define LANENEG1(p, m) \
	VMOVDQA64 p, Z1;     \
	VMOVDQA64 m, K2, p;  \
	VMOVDQA64 Z1, K2, m

// LANELOOKUP sets the niels element n, lane by lane, to digit R8 of that
// lane times window R8/2 of the table at R9, as combTable.lookup does:
// the identity, then each entry where the digit's absolute value picks
// it, then the negation where the digit is negative.
#define LANELOOKUP \
	VPMOVSXBQ    laneCombState_digits(DI)(R8*8), Z2; \
	VPABSQ       Z2, Z0;                             \
	VPXORQ       Z3, Z3, Z3;                         \
	VPCMPGTQ     Z2, Z3, K2;                         \
	VPBROADCASTQ laneDigit<>+0(SB), Z10;             \
	VPXORQ       Z11, Z11, Z11;                      \
	VPXORQ       Z12, Z12, Z12;                      \
	VPXORQ       Z13, Z13, Z13;                      \
	VPXORQ       Z14, Z14, Z14;                      \
	VMOVDQA64    Z10, Z15;                           \
	VPXORQ       Z16, Z16, Z16;                      \
	VPXORQ       Z17, Z17, Z17;                      \
	VPXORQ       Z18, Z18, Z18;                      \
	VPXORQ       Z19, Z19, Z19;                      \
	VPXORQ       Z20, Z20, Z20;                      \
	VPXORQ       Z21, Z21, Z21;                      \
	VPXORQ       Z22, Z22, Z22;                      \
	VPXORQ       Z23, Z23, Z23;                      \
	VPXORQ       Z24, Z24, Z24;                      \
	LANEPICK(0, 0);                                  \
	LANEPICK(8, 120);                                \
	LANEPICK(16, 240);                               \
	LANEPICK(24, 360);                               \
	LANEPICK(32, 480);                               \
	LANEPICK(40, 600);                               \
	LANEPICK(48, 720);                               \
	LANEPICK(56, 840);                               \
	LANENEG1(Z10, Z15);                              \
	LANENEG1(Z11, Z16);                              \
	LANENEG1(Z12, Z17);                              \
	LANENEG1(Z13, Z18);                              \
	LANENEG1(Z14, Z19);                              \
	VPSUBQ       Z20, Z30, K2, Z20;                  \
	VPSUBQ       Z21, Z31, K2, Z21;                  \
	VPSUBQ       Z22, Z31, K2, Z22;                  \
	VPSUBQ       Z23, Z31, K2, Z23;                  \
	VPSUBQ       Z24, Z31, K2, Z24;                  \
	VMOVDQU64    Z10, NYP+0(DI);                     \
	VMOVDQU64    Z11, NYP+64(DI);                    \
	VMOVDQU64    Z12, NYP+128(DI);                   \
	VMOVDQU64    Z13, NYP+192(DI);                   \
	VMOVDQU64    Z14, NYP+256(DI);                   \
	VMOVDQU64    Z15, NYM+0(DI);                     \
	VMOVDQU64    Z16, NYM+64(DI);                    \
	VMOVDQU64    Z17, NYM+128(DI);                   \
	VMOVDQU64    Z18, NYM+192(DI);                   \
	VMOVDQU64    Z19, NYM+256(DI);                   \
	VMOVDQU64    Z20, NT2D+0(DI);                    \
	VMOVDQU64    Z21, NT2D+64(DI);                   \
	VMOVDQU64    Z22, NT2D+128(DI);                  \
	VMOVDQU64    Z23, NT2D+192(DI);                  \
	VMOVDQU64    Z24, NT2D+256(DI)

// LANEADDNIELS adds the niels element to the point: completed.addNiels,
// then point.set.
#define LANEADDNIELS \
	LANEADD(TA, PTY, PTX);     \
	LANEMUL(TA, TA, NYP);    \
	LANESUB(TB, PTY, PTX);     \
	LANEMUL(TB, TB, NYM);    \
	LANEMUL(TC, PTT, NT2D);   \
	LANEADD(TD, PTZ, PTZ);     \
	LANESUB(EX, TA, TB);    \
	LANEADD(EY, TA, TB);    \
	LANEADD(EZ, TD, TC);    \
	LANESUB(ET, TD, TC);    \
	LANEMUL(PTX, EX, ET);   \
	LANEMUL(PTY, EY, EZ);   \
	LANEMUL(PTZ, EZ, ET);   \
	LANEMUL(PTT, EX, EY)

// LANEDOUBLE doubles the point, completed.double then point.setNoT: T is
// left stale, as a doubling does not read it.
#define LANEDOUBLE \
	LANESQUARE(TA, PTX);      \
	LANESQUARE(TB, PTY);      \
	LANESQUARE(TC, PTZ);      \
	LANEADD(TC, TC, TC);     \
	LANEADD(TD, PTX, PTY);     \
	LANESQUARE(TD, TD);      \
	LANEADD(EY, TB, TA);    \
	LANESUB(EZ, TB, TA);    \
	LANESUB(EX, TD, EY);   \
	LANESUB(ET, TC, EZ);   \
	LANEMUL(PTX, EX, ET);   \
	LANEMUL(PTY, EY, EZ);   \
	LANEMUL(PTZ, EZ, ET)

// func laneCombKernel(s *laneCombState, t *laneCombTable)
//
// combTable.scalarMult on the eight lanes of s, with the table t: the
// odd digits' 32 additions, four doublings, the even digits' 32
// additions, from the point laneComb sets (the identity). It leaves the
// counts of its multiplications and squarings in s.muls and s.squares,
// and clears every vector and mask register it used before it returns.
TEXT ·laneCombKernel(SB), NOSPLIT, $0-16
	MOVQ s+0(FP), DI
	MOVQ t+8(FP), SI
	VPBROADCASTQ laneConst<>+0(SB), Z28
	VPBROADCASTQ laneConst<>+8(SB), Z29
	VPBROADCASTQ laneConst<>+16(SB), Z30
	VPBROADCASTQ laneConst<>+24(SB), Z31
	XORQ R12, R12
	XORQ R13, R13
	MOVQ $1, R8 // i, the digit: the odd ones first

comb:
	// R9 = the 960-byte window i/2 of the table.
	MOVQ   R8, R9
	SHRQ   $1, R9
	IMUL3Q $960, R9, R9
	ADDQ   SI, R9
	LANELOOKUP
	LANEADDNIELS
	ADDQ   $2, R8
	CMPQ   R8, $64
	JLT    comb

	// After the odd digits (i = 65), multiply by 16 and start the even
	// ones; after the even ones (i = 64), the walk is done.
	CMPQ R8, $65
	JNE  done
	LANEDOUBLE
	LANEDOUBLE
	LANEDOUBLE
	LANEDOUBLE
	LANEMUL(PTT, EX, EY)
	XORQ R8, R8
	JMP  comb

done:
	MOVQ R12, laneCombState_muls(DI)
	MOVQ R13, laneCombState_squares(DI)
	KXORW K1, K1, K1
	KXORW K2, K2, K2
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	VZEROUPPER
	RET
