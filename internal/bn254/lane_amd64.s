// The lane field of BN254 on AVX-512 IFMA (lane.go): eight elements of
// Fp at a time, one per 64-bit lane, each in Montgomery form with
// R = 2^260 as five 52-bit limbs, least significant first; limb k of all
// eight lanes is one ZMM register, and one laneFe in memory. Products
// take VPMADD52LUQ and VPMADD52HUQ, the low and the high 52 bits of a
// 104-bit product added to a 64-bit accumulator, so every limb a product
// reads is below 2^52: every kernel leaves its result's limbs carried
// (below 2^52 each) and its value below 2P.
//
// A product of two elements gathers its 25 limb products in ten column
// accumulators, Z10..Z19 (column k weighs 2^(52k)), and LANEREDC
// reduces them: five rows, each adding m·P at its column with
// m = column·(−P⁻¹) mod 2^52, which clears the column's low 52 bits, and
// carrying the rest one column up. With inputs below 4P the columns are
// below 2^59 throughout and the result, (T + M·P)/2^260 for the product
// T < 16P², is below 16P²/2^260 + P < 1.25P.
//
// Constants (laneConsts, derived and checked in lane.go): Z25 holds
// 2^52 − 1 in every lane, Z26 −P⁻¹ mod 2^52 and Z27..Z31 P's limbs, in
// the kernels that multiply; the others load what they use where they
// use it. Nothing here branches or indexes memory on a value; a lane's
// choice between two values is a mask from a comparison in that lane.

#include "textflag.h"

#define MASK ·laneConsts+0(SB)
#define NINV ·laneConsts+8(SB)
#define PL(k) ·laneConsts+(16+8*k)(SB)
#define P2L(k) ·laneConsts+(56+8*k)(SB)
#define MU ·laneConsts+96(SB)

// LANEMULCONST loads the product kernels' constants.
#define LANEMULCONST \
	VPBROADCASTQ MASK, Z25; \
	VPBROADCASTQ NINV, Z26; \
	VPBROADCASTQ PL(0), Z27; \
	VPBROADCASTQ PL(1), Z28; \
	VPBROADCASTQ PL(2), Z29; \
	VPBROADCASTQ PL(3), Z30; \
	VPBROADCASTQ PL(4), Z31

// LANEZEROACC clears the column accumulators Z10..Z19.
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
	VPXORQ Z19, Z19, Z19

// LANELOADA loads the element at off(b) into Z0..Z4.
#define LANELOADA(b, off) \
	VMOVDQU64 off+0(b), Z0; \
	VMOVDQU64 off+64(b), Z1; \
	VMOVDQU64 off+128(b), Z2; \
	VMOVDQU64 off+192(b), Z3; \
	VMOVDQU64 off+256(b), Z4

// LANESTORE writes r0..r4 to the element at off(b).
#define LANESTORE(r0, r1, r2, r3, r4, b, off) \
	VMOVDQU64 r0, off+0(b); \
	VMOVDQU64 r1, off+64(b); \
	VMOVDQU64 r2, off+128(b); \
	VMOVDQU64 r3, off+192(b); \
	VMOVDQU64 r4, off+256(b)

// LANEPRODM adds Z0..Z4 times the element at off(b) to the columns.
#define LANEPRODM(b, off) \
	VPMADD52LUQ off+0(b), Z0, Z10; \
	VPMADD52HUQ off+0(b), Z0, Z11; \
	VPMADD52LUQ off+64(b), Z0, Z11; \
	VPMADD52HUQ off+64(b), Z0, Z12; \
	VPMADD52LUQ off+128(b), Z0, Z12; \
	VPMADD52HUQ off+128(b), Z0, Z13; \
	VPMADD52LUQ off+192(b), Z0, Z13; \
	VPMADD52HUQ off+192(b), Z0, Z14; \
	VPMADD52LUQ off+256(b), Z0, Z14; \
	VPMADD52HUQ off+256(b), Z0, Z15; \
	VPMADD52LUQ off+0(b), Z1, Z11; \
	VPMADD52HUQ off+0(b), Z1, Z12; \
	VPMADD52LUQ off+64(b), Z1, Z12; \
	VPMADD52HUQ off+64(b), Z1, Z13; \
	VPMADD52LUQ off+128(b), Z1, Z13; \
	VPMADD52HUQ off+128(b), Z1, Z14; \
	VPMADD52LUQ off+192(b), Z1, Z14; \
	VPMADD52HUQ off+192(b), Z1, Z15; \
	VPMADD52LUQ off+256(b), Z1, Z15; \
	VPMADD52HUQ off+256(b), Z1, Z16; \
	VPMADD52LUQ off+0(b), Z2, Z12; \
	VPMADD52HUQ off+0(b), Z2, Z13; \
	VPMADD52LUQ off+64(b), Z2, Z13; \
	VPMADD52HUQ off+64(b), Z2, Z14; \
	VPMADD52LUQ off+128(b), Z2, Z14; \
	VPMADD52HUQ off+128(b), Z2, Z15; \
	VPMADD52LUQ off+192(b), Z2, Z15; \
	VPMADD52HUQ off+192(b), Z2, Z16; \
	VPMADD52LUQ off+256(b), Z2, Z16; \
	VPMADD52HUQ off+256(b), Z2, Z17; \
	VPMADD52LUQ off+0(b), Z3, Z13; \
	VPMADD52HUQ off+0(b), Z3, Z14; \
	VPMADD52LUQ off+64(b), Z3, Z14; \
	VPMADD52HUQ off+64(b), Z3, Z15; \
	VPMADD52LUQ off+128(b), Z3, Z15; \
	VPMADD52HUQ off+128(b), Z3, Z16; \
	VPMADD52LUQ off+192(b), Z3, Z16; \
	VPMADD52HUQ off+192(b), Z3, Z17; \
	VPMADD52LUQ off+256(b), Z3, Z17; \
	VPMADD52HUQ off+256(b), Z3, Z18; \
	VPMADD52LUQ off+0(b), Z4, Z14; \
	VPMADD52HUQ off+0(b), Z4, Z15; \
	VPMADD52LUQ off+64(b), Z4, Z15; \
	VPMADD52HUQ off+64(b), Z4, Z16; \
	VPMADD52LUQ off+128(b), Z4, Z16; \
	VPMADD52HUQ off+128(b), Z4, Z17; \
	VPMADD52LUQ off+192(b), Z4, Z17; \
	VPMADD52HUQ off+192(b), Z4, Z18; \
	VPMADD52LUQ off+256(b), Z4, Z18; \
	VPMADD52HUQ off+256(b), Z4, Z19

// LANEPRODR adds Z0..Z4 times Z5..Z9 to the columns.
#define LANEPRODR \
	VPMADD52LUQ Z5, Z0, Z10; \
	VPMADD52HUQ Z5, Z0, Z11; \
	VPMADD52LUQ Z6, Z0, Z11; \
	VPMADD52HUQ Z6, Z0, Z12; \
	VPMADD52LUQ Z7, Z0, Z12; \
	VPMADD52HUQ Z7, Z0, Z13; \
	VPMADD52LUQ Z8, Z0, Z13; \
	VPMADD52HUQ Z8, Z0, Z14; \
	VPMADD52LUQ Z9, Z0, Z14; \
	VPMADD52HUQ Z9, Z0, Z15; \
	VPMADD52LUQ Z5, Z1, Z11; \
	VPMADD52HUQ Z5, Z1, Z12; \
	VPMADD52LUQ Z6, Z1, Z12; \
	VPMADD52HUQ Z6, Z1, Z13; \
	VPMADD52LUQ Z7, Z1, Z13; \
	VPMADD52HUQ Z7, Z1, Z14; \
	VPMADD52LUQ Z8, Z1, Z14; \
	VPMADD52HUQ Z8, Z1, Z15; \
	VPMADD52LUQ Z9, Z1, Z15; \
	VPMADD52HUQ Z9, Z1, Z16; \
	VPMADD52LUQ Z5, Z2, Z12; \
	VPMADD52HUQ Z5, Z2, Z13; \
	VPMADD52LUQ Z6, Z2, Z13; \
	VPMADD52HUQ Z6, Z2, Z14; \
	VPMADD52LUQ Z7, Z2, Z14; \
	VPMADD52HUQ Z7, Z2, Z15; \
	VPMADD52LUQ Z8, Z2, Z15; \
	VPMADD52HUQ Z8, Z2, Z16; \
	VPMADD52LUQ Z9, Z2, Z16; \
	VPMADD52HUQ Z9, Z2, Z17; \
	VPMADD52LUQ Z5, Z3, Z13; \
	VPMADD52HUQ Z5, Z3, Z14; \
	VPMADD52LUQ Z6, Z3, Z14; \
	VPMADD52HUQ Z6, Z3, Z15; \
	VPMADD52LUQ Z7, Z3, Z15; \
	VPMADD52HUQ Z7, Z3, Z16; \
	VPMADD52LUQ Z8, Z3, Z16; \
	VPMADD52HUQ Z8, Z3, Z17; \
	VPMADD52LUQ Z9, Z3, Z17; \
	VPMADD52HUQ Z9, Z3, Z18; \
	VPMADD52LUQ Z5, Z4, Z14; \
	VPMADD52HUQ Z5, Z4, Z15; \
	VPMADD52LUQ Z6, Z4, Z15; \
	VPMADD52HUQ Z6, Z4, Z16; \
	VPMADD52LUQ Z7, Z4, Z16; \
	VPMADD52HUQ Z7, Z4, Z17; \
	VPMADD52LUQ Z8, Z4, Z17; \
	VPMADD52HUQ Z8, Z4, Z18; \
	VPMADD52LUQ Z9, Z4, Z18; \
	VPMADD52HUQ Z9, Z4, Z19

// LANEREDC reduces the columns Z10..Z19 into Z15..Z19, carried. Each row
// takes m from its column's low 52 bits (the rows before it left the
// column complete) and adds m·P there, which clears those bits; the rest
// carries to the next column. Clobbers Z5, Z6.
#define LANEREDC \
	VPXORQ Z5, Z5, Z5; \
	VPMADD52LUQ Z26, Z10, Z5; \
	VPMADD52LUQ Z27, Z5, Z10; \
	VPMADD52HUQ Z27, Z5, Z11; \
	VPMADD52LUQ Z28, Z5, Z11; \
	VPMADD52HUQ Z28, Z5, Z12; \
	VPMADD52LUQ Z29, Z5, Z12; \
	VPMADD52HUQ Z29, Z5, Z13; \
	VPMADD52LUQ Z30, Z5, Z13; \
	VPMADD52HUQ Z30, Z5, Z14; \
	VPMADD52LUQ Z31, Z5, Z14; \
	VPMADD52HUQ Z31, Z5, Z15; \
	VPSRLQ $52, Z10, Z6; \
	VPADDQ Z6, Z11, Z11; \
	VPXORQ Z5, Z5, Z5; \
	VPMADD52LUQ Z26, Z11, Z5; \
	VPMADD52LUQ Z27, Z5, Z11; \
	VPMADD52HUQ Z27, Z5, Z12; \
	VPMADD52LUQ Z28, Z5, Z12; \
	VPMADD52HUQ Z28, Z5, Z13; \
	VPMADD52LUQ Z29, Z5, Z13; \
	VPMADD52HUQ Z29, Z5, Z14; \
	VPMADD52LUQ Z30, Z5, Z14; \
	VPMADD52HUQ Z30, Z5, Z15; \
	VPMADD52LUQ Z31, Z5, Z15; \
	VPMADD52HUQ Z31, Z5, Z16; \
	VPSRLQ $52, Z11, Z6; \
	VPADDQ Z6, Z12, Z12; \
	VPXORQ Z5, Z5, Z5; \
	VPMADD52LUQ Z26, Z12, Z5; \
	VPMADD52LUQ Z27, Z5, Z12; \
	VPMADD52HUQ Z27, Z5, Z13; \
	VPMADD52LUQ Z28, Z5, Z13; \
	VPMADD52HUQ Z28, Z5, Z14; \
	VPMADD52LUQ Z29, Z5, Z14; \
	VPMADD52HUQ Z29, Z5, Z15; \
	VPMADD52LUQ Z30, Z5, Z15; \
	VPMADD52HUQ Z30, Z5, Z16; \
	VPMADD52LUQ Z31, Z5, Z16; \
	VPMADD52HUQ Z31, Z5, Z17; \
	VPSRLQ $52, Z12, Z6; \
	VPADDQ Z6, Z13, Z13; \
	VPXORQ Z5, Z5, Z5; \
	VPMADD52LUQ Z26, Z13, Z5; \
	VPMADD52LUQ Z27, Z5, Z13; \
	VPMADD52HUQ Z27, Z5, Z14; \
	VPMADD52LUQ Z28, Z5, Z14; \
	VPMADD52HUQ Z28, Z5, Z15; \
	VPMADD52LUQ Z29, Z5, Z15; \
	VPMADD52HUQ Z29, Z5, Z16; \
	VPMADD52LUQ Z30, Z5, Z16; \
	VPMADD52HUQ Z30, Z5, Z17; \
	VPMADD52LUQ Z31, Z5, Z17; \
	VPMADD52HUQ Z31, Z5, Z18; \
	VPSRLQ $52, Z13, Z6; \
	VPADDQ Z6, Z14, Z14; \
	VPXORQ Z5, Z5, Z5; \
	VPMADD52LUQ Z26, Z14, Z5; \
	VPMADD52LUQ Z27, Z5, Z14; \
	VPMADD52HUQ Z27, Z5, Z15; \
	VPMADD52LUQ Z28, Z5, Z15; \
	VPMADD52HUQ Z28, Z5, Z16; \
	VPMADD52LUQ Z29, Z5, Z16; \
	VPMADD52HUQ Z29, Z5, Z17; \
	VPMADD52LUQ Z30, Z5, Z17; \
	VPMADD52HUQ Z30, Z5, Z18; \
	VPMADD52LUQ Z31, Z5, Z18; \
	VPMADD52HUQ Z31, Z5, Z19; \
	VPSRLQ $52, Z14, Z6; \
	VPADDQ Z6, Z15, Z15; \
	VPSRLQ $52, Z15, Z6; \
	VPANDQ Z25, Z15, Z15; \
	VPADDQ Z6, Z16, Z16; \
	VPSRLQ $52, Z16, Z6; \
	VPANDQ Z25, Z16, Z16; \
	VPADDQ Z6, Z17, Z17; \
	VPSRLQ $52, Z17, Z6; \
	VPANDQ Z25, Z17, Z17; \
	VPADDQ Z6, Z18, Z18; \
	VPSRLQ $52, Z18, Z6; \
	VPANDQ Z25, Z18, Z18; \
	VPADDQ Z6, Z19, Z19

// LANENORMU carries r0..r4 up once: each of r0..r3 keeps its low 52 bits,
// the rest joins the limb above. Z25 holds the mask.
#define LANENORMU(r0, r1, r2, r3, r4, t) \
	VPSRLQ $52, r0, t; \
	VPANDQ Z25, r0, r0; \
	VPADDQ t, r1, r1; \
	VPSRLQ $52, r1, t; \
	VPANDQ Z25, r1, r1; \
	VPADDQ t, r2, r2; \
	VPSRLQ $52, r2, t; \
	VPANDQ Z25, r2, r2; \
	VPADDQ t, r3, r3; \
	VPSRLQ $52, r3, t; \
	VPANDQ Z25, r3, r3; \
	VPADDQ t, r4, r4

// LANENORMS is LANENORMU for limbs that may be negative: the carry is an
// arithmetic shift, so a negative value ends with r0..r3 carried and r4
// negative.
#define LANENORMS(r0, r1, r2, r3, r4, t) \
	VPSRAQ $52, r0, t; \
	VPANDQ Z25, r0, r0; \
	VPADDQ t, r1, r1; \
	VPSRAQ $52, r1, t; \
	VPANDQ Z25, r1, r1; \
	VPADDQ t, r2, r2; \
	VPSRAQ $52, r2, t; \
	VPANDQ Z25, r2, r2; \
	VPADDQ t, r3, r3; \
	VPSRAQ $52, r3, t; \
	VPANDQ Z25, r3, r3; \
	VPADDQ t, r4, r4

// LANENEG2P sets Z5..Z9 to 2P minus the element at off(b), carried.
// Clobbers Z10.
#define LANENEG2P(b, off) \
	VPBROADCASTQ P2L(0), Z5; \
	VPSUBQ off+0(b), Z5, Z5; \
	VPBROADCASTQ P2L(1), Z6; \
	VPSUBQ off+64(b), Z6, Z6; \
	VPBROADCASTQ P2L(2), Z7; \
	VPSUBQ off+128(b), Z7, Z7; \
	VPBROADCASTQ P2L(3), Z8; \
	VPSUBQ off+192(b), Z8, Z8; \
	VPBROADCASTQ P2L(4), Z9; \
	VPSUBQ off+256(b), Z9, Z9; \
	LANENORMS(Z5, Z6, Z7, Z8, Z9, Z10)

// LANEADDCONST loads the additive kernels' constants: 2P's limbs in Z27..Z31.
#define LANEADDCONST \
	VPBROADCASTQ MASK, Z25; \
	VPBROADCASTQ P2L(0), Z27; \
	VPBROADCASTQ P2L(1), Z28; \
	VPBROADCASTQ P2L(2), Z29; \
	VPBROADCASTQ P2L(3), Z30; \
	VPBROADCASTQ P2L(4), Z31

// LANEADDAT sets the element at off(DI) to the sum of those at off(SI)
// and off(DX): below 4P, carried, then 2P subtracted in the lanes where
// the difference is not negative (K1).
#define LANEADDAT(off) \
	VMOVDQU64 off+0(SI), Z0; \
	VPADDQ off+0(DX), Z0, Z0; \
	VMOVDQU64 off+64(SI), Z1; \
	VPADDQ off+64(DX), Z1, Z1; \
	VMOVDQU64 off+128(SI), Z2; \
	VPADDQ off+128(DX), Z2, Z2; \
	VMOVDQU64 off+192(SI), Z3; \
	VPADDQ off+192(DX), Z3, Z3; \
	VMOVDQU64 off+256(SI), Z4; \
	VPADDQ off+256(DX), Z4, Z4; \
	LANENORMU(Z0, Z1, Z2, Z3, Z4, Z10); \
	VPSUBQ Z27, Z0, Z5; \
	VPSUBQ Z28, Z1, Z6; \
	VPSUBQ Z29, Z2, Z7; \
	VPSUBQ Z30, Z3, Z8; \
	VPSUBQ Z31, Z4, Z9; \
	LANENORMS(Z5, Z6, Z7, Z8, Z9, Z10); \
	VPXORQ Z11, Z11, Z11; \
	VPCMPQ $5, Z11, Z9, K1; \
	VMOVDQA64 Z5, K1, Z0; \
	VMOVDQA64 Z6, K1, Z1; \
	VMOVDQA64 Z7, K1, Z2; \
	VMOVDQA64 Z8, K1, Z3; \
	VMOVDQA64 Z9, K1, Z4; \
	LANESTORE(Z0, Z1, Z2, Z3, Z4, DI, off)

// LANESUBAT sets the element at off(DI) to the difference of those at
// off(SI) and off(DX), carried, with 2P added in the lanes where it is
// negative (K1).
#define LANESUBAT(off) \
	VMOVDQU64 off+0(SI), Z0; \
	VPSUBQ off+0(DX), Z0, Z0; \
	VMOVDQU64 off+64(SI), Z1; \
	VPSUBQ off+64(DX), Z1, Z1; \
	VMOVDQU64 off+128(SI), Z2; \
	VPSUBQ off+128(DX), Z2, Z2; \
	VMOVDQU64 off+192(SI), Z3; \
	VPSUBQ off+192(DX), Z3, Z3; \
	VMOVDQU64 off+256(SI), Z4; \
	VPSUBQ off+256(DX), Z4, Z4; \
	LANENORMS(Z0, Z1, Z2, Z3, Z4, Z10); \
	VPXORQ Z11, Z11, Z11; \
	VPCMPQ $1, Z11, Z4, K1; \
	VPADDQ Z27, Z0, K1, Z0; \
	VPADDQ Z28, Z1, K1, Z1; \
	VPADDQ Z29, Z2, K1, Z2; \
	VPADDQ Z30, Z3, K1, Z3; \
	VPADDQ Z31, Z4, K1, Z4; \
	LANENORMU(Z0, Z1, Z2, Z3, Z4, Z10); \
	LANESTORE(Z0, Z1, Z2, Z3, Z4, DI, off)

// LANETIMES9 sets r0..r4 to nine times the limbs at off(b), uncarried.
// Clobbers Z16.
#define LANETIMES9(b, off, r0, r1, r2, r3, r4) \
	VMOVDQU64 off+0(b), r0; \
	VPSLLQ $3, r0, Z16; \
	VPADDQ Z16, r0, r0; \
	VMOVDQU64 off+64(b), r1; \
	VPSLLQ $3, r1, Z16; \
	VPADDQ Z16, r1, r1; \
	VMOVDQU64 off+128(b), r2; \
	VPSLLQ $3, r2, Z16; \
	VPADDQ Z16, r2, r2; \
	VMOVDQU64 off+192(b), r3; \
	VPSLLQ $3, r3, Z16; \
	VPADDQ Z16, r3, r3; \
	VMOVDQU64 off+256(b), r4; \
	VPSLLQ $3, r4, Z16; \
	VPADDQ Z16, r4, r4

// LANEREDUCE brings a carried r0..r4 below 2^260 to below 2P: it
// subtracts q·P for q = ⌊r4·MU/2^97⌋, MU = ⌊2^305/P⌋ in Z22, which is
// at most ⌊v/P⌋ and at least ⌊v/P⌋ − 1 (the truncations lose under
// 2^−45 of P), and carries. q < 2^7, so q·P's top product has no high
// half. P's limbs are in Z27..Z31; clobbers Z10..Z16.
#define LANEREDUCE(r0, r1, r2, r3, r4) \
	VPXORQ Z15, Z15, Z15; \
	VPMADD52HUQ Z22, r4, Z15; \
	VPSRLQ $45, Z15, Z15; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPMADD52LUQ Z27, Z15, Z10; \
	VPMADD52HUQ Z27, Z15, Z11; \
	VPMADD52LUQ Z28, Z15, Z11; \
	VPMADD52HUQ Z28, Z15, Z12; \
	VPMADD52LUQ Z29, Z15, Z12; \
	VPMADD52HUQ Z29, Z15, Z13; \
	VPMADD52LUQ Z30, Z15, Z13; \
	VPMADD52HUQ Z30, Z15, Z14; \
	VPMADD52LUQ Z31, Z15, Z14; \
	VPSUBQ Z10, r0, r0; \
	VPSUBQ Z11, r1, r1; \
	VPSUBQ Z12, r2, r2; \
	VPSUBQ Z13, r3, r3; \
	VPSUBQ Z14, r4, r4; \
	LANENORMS(r0, r1, r2, r3, r4, Z16)

// func laneMul(z, x, y *laneFe)
TEXT ·laneMul(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEMULCONST
	LANEZEROACC
	LANELOADA(SI, 0)
	LANEPRODM(DX, 0)
	LANEREDC
	LANESTORE(Z15, Z16, Z17, Z18, Z19, DI, 0)
	VZEROUPPER
	RET

// func lane2Mul(z, x, y *lane2)
//
// c1 = x0·y1 + x1·y0 and c0 = x0·y0 + x1·(2P − y1), each two products in
// one set of columns and one reduction: schoolbook, because a Karatsuba
// difference of column sets needs a borrow-proof multiple of P per
// column, and the fourth product costs less than that. c1 waits in
// Z20..Z24 while c0 is made, so z may be x or y.
TEXT ·lane2Mul(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEMULCONST
	LANEZEROACC
	LANELOADA(SI, 0)
	LANEPRODM(DX, 320)
	LANELOADA(SI, 320)
	LANEPRODM(DX, 0)
	LANEREDC
	VMOVDQA64 Z15, Z20
	VMOVDQA64 Z16, Z21
	VMOVDQA64 Z17, Z22
	VMOVDQA64 Z18, Z23
	VMOVDQA64 Z19, Z24
	LANENEG2P(DX, 320)
	LANEZEROACC
	LANEPRODR
	LANELOADA(SI, 0)
	LANEPRODM(DX, 0)
	LANEREDC
	LANESTORE(Z15, Z16, Z17, Z18, Z19, DI, 0)
	LANESTORE(Z20, Z21, Z22, Z23, Z24, DI, 320)
	VZEROUPPER
	RET

// func lane2Square(z, x *lane2)
//
// c1 = 2·x0·x1, the columns doubled before the reduction, and
// c0 = (x0 + x1)·(x0 + 2P − x1), both factors below 4P.
TEXT ·lane2Square(SB), NOSPLIT, $0-16
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	LANEMULCONST
	LANEZEROACC
	LANELOADA(SI, 0)
	LANEPRODM(SI, 320)
	VPADDQ Z10, Z10, Z10
	VPADDQ Z11, Z11, Z11
	VPADDQ Z12, Z12, Z12
	VPADDQ Z13, Z13, Z13
	VPADDQ Z14, Z14, Z14
	VPADDQ Z15, Z15, Z15
	VPADDQ Z16, Z16, Z16
	VPADDQ Z17, Z17, Z17
	VPADDQ Z18, Z18, Z18
	VPADDQ Z19, Z19, Z19
	LANEREDC
	VMOVDQA64 Z15, Z20
	VMOVDQA64 Z16, Z21
	VMOVDQA64 Z17, Z22
	VMOVDQA64 Z18, Z23
	VMOVDQA64 Z19, Z24
	LANENEG2P(SI, 320)
	VPADDQ 0(SI), Z5, Z5
	VPADDQ 64(SI), Z6, Z6
	VPADDQ 128(SI), Z7, Z7
	VPADDQ 192(SI), Z8, Z8
	VPADDQ 256(SI), Z9, Z9
	LANENORMU(Z5, Z6, Z7, Z8, Z9, Z10)
	LANELOADA(SI, 0)
	VPADDQ 320(SI), Z0, Z0
	VPADDQ 384(SI), Z1, Z1
	VPADDQ 448(SI), Z2, Z2
	VPADDQ 512(SI), Z3, Z3
	VPADDQ 576(SI), Z4, Z4
	LANENORMU(Z0, Z1, Z2, Z3, Z4, Z10)
	LANEZEROACC
	LANEPRODR
	LANEREDC
	LANESTORE(Z15, Z16, Z17, Z18, Z19, DI, 0)
	LANESTORE(Z20, Z21, Z22, Z23, Z24, DI, 320)
	VZEROUPPER
	RET

// func laneAdd(z, x, y *laneFe)
TEXT ·laneAdd(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEADDCONST
	LANEADDAT(0)
	VZEROUPPER
	RET

// func laneSub(z, x, y *laneFe)
TEXT ·laneSub(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEADDCONST
	LANESUBAT(0)
	VZEROUPPER
	RET

// func lane2Add(z, x, y *lane2)
TEXT ·lane2Add(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEADDCONST
	LANEADDAT(0)
	LANEADDAT(320)
	VZEROUPPER
	RET

// func lane2Sub(z, x, y *lane2)
TEXT ·lane2Sub(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEADDCONST
	LANESUBAT(0)
	LANESUBAT(320)
	VZEROUPPER
	RET

// func laneZeroRegs()
//
// Clears every vector and opmask register the kernels use: the lane
// pairing calls it once a batch, after its last kernel, so that no value
// of the key or the entries stays in a register.
TEXT ·laneZeroRegs(SB), NOSPLIT, $0-0
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
	KXORW K1, K1, K1
	VZEROUPPER
	RET

// func lane6Add(z, x, y *lane6)
TEXT ·lane6Add(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEADDCONST
	LANEADDAT(0)
	LANEADDAT(320)
	LANEADDAT(640)
	LANEADDAT(960)
	LANEADDAT(1280)
	LANEADDAT(1600)
	VZEROUPPER
	RET

// func lane6Sub(z, x, y *lane6)
TEXT ·lane6Sub(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	LANEADDCONST
	LANESUBAT(0)
	LANESUBAT(320)
	LANESUBAT(640)
	LANESUBAT(960)
	LANESUBAT(1280)
	LANESUBAT(1600)
	VZEROUPPER
	RET

// func lane2MulXi(z, x *lane2)
//
// z = ξ·x = (9x0 − x1) + (9x1 + x0)·i: each coefficient summed limb by
// limb (9x0 + 2P − x1 and 9x1 + x0, below 20P), carried, and brought
// below 2P by LANEREDUCE. Both are made before either is stored, so z
// may be x.
TEXT ·lane2MulXi(SB), NOSPLIT, $0-16
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	VPBROADCASTQ MASK, Z25
	VPBROADCASTQ PL(0), Z27
	VPBROADCASTQ PL(1), Z28
	VPBROADCASTQ PL(2), Z29
	VPBROADCASTQ PL(3), Z30
	VPBROADCASTQ PL(4), Z31
	VPBROADCASTQ MU, Z22
	LANETIMES9(SI, 320, Z0, Z1, Z2, Z3, Z4)
	VPADDQ 0(SI), Z0, Z0
	VPADDQ 64(SI), Z1, Z1
	VPADDQ 128(SI), Z2, Z2
	VPADDQ 192(SI), Z3, Z3
	VPADDQ 256(SI), Z4, Z4
	LANENORMU(Z0, Z1, Z2, Z3, Z4, Z16)
	LANEREDUCE(Z0, Z1, Z2, Z3, Z4)
	LANETIMES9(SI, 0, Z5, Z6, Z7, Z8, Z9)
	VPBROADCASTQ P2L(0), Z17
	VPBROADCASTQ P2L(1), Z18
	VPBROADCASTQ P2L(2), Z19
	VPBROADCASTQ P2L(3), Z20
	VPBROADCASTQ P2L(4), Z21
	VPADDQ Z17, Z5, Z5
	VPADDQ Z18, Z6, Z6
	VPADDQ Z19, Z7, Z7
	VPADDQ Z20, Z8, Z8
	VPADDQ Z21, Z9, Z9
	VPSUBQ 320(SI), Z5, Z5
	VPSUBQ 384(SI), Z6, Z6
	VPSUBQ 448(SI), Z7, Z7
	VPSUBQ 512(SI), Z8, Z8
	VPSUBQ 576(SI), Z9, Z9
	LANENORMS(Z5, Z6, Z7, Z8, Z9, Z16)
	LANEREDUCE(Z5, Z6, Z7, Z8, Z9)
	LANESTORE(Z5, Z6, Z7, Z8, Z9, DI, 0)
	LANESTORE(Z0, Z1, Z2, Z3, Z4, DI, 320)
	VZEROUPPER
	RET
