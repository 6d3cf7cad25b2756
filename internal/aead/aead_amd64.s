// AES-256 kernels for CPUs with AES-NI: the key expansion, the two blocks
// a message's mode needs before its first keystream block, and the CTR
// keystream XOR.
//
// The round keys are 15 blocks of 16 bytes at the caller's address, in
// the byte order AESENC takes them; that memory is the caller's to erase.
// The kernels load them with MOVOU, because a Go array on the stack is
// not 16-byte aligned, and keep everything else in registers. Nothing
// here branches on or indexes memory by a key, counter or keystream
// value: AESENC and AESKEYGENASSIST are constant time, and the only
// branches test lengths. Each kernel clears every vector register it
// used, and the general-purpose registers that held keystream bytes,
// before it returns.

#include "textflag.h"

// PREFIXXOR sets w to w ⊕ w<<32 ⊕ w<<64 ⊕ w<<96: word i of the result is
// the XOR of words 0..i, the chain each expansion step runs through the
// four words of the previous key of its parity. Clobbers t.
#define PREFIXXOR(w, t) \
	MOVO   w, t;  \
	PSLLDQ $4, t; \
	PXOR   t, w;  \
	PSLLDQ $4, t; \
	PXOR   t, w;  \
	PSLLDQ $4, t; \
	PXOR   t, w

// EXPANDEVEN replaces the even round key in X0 by the next one — its
// words prefix-XORed, then each XORed with RotWord(SubWord) of the odd
// key's last word and rcon — and stores it at off(DI). Clobbers X2, X3.
#define EXPANDEVEN(rcon, off) \
	AESKEYGENASSIST $rcon, X1, X2; \
	PSHUFD          $0xff, X2, X2; \
	PREFIXXOR(X0, X3);             \
	PXOR            X2, X0;        \
	MOVOU           X0, off(DI)

// EXPANDODD replaces the odd round key in X1 by the next one, from
// SubWord of the new even key's last word (no rotation, no rcon), and
// stores it at off(DI). Clobbers X2, X3.
#define EXPANDODD(off) \
	AESKEYGENASSIST $0, X0, X2; \
	PSHUFD          $0xaa, X2, X2; \
	PREFIXXOR(X1, X3);          \
	PXOR            X2, X1;     \
	MOVOU           X1, off(DI)

// func expandKey(rk *roundKeys, key *[KeySize]byte)
TEXT ·expandKey(SB), NOSPLIT, $0-16
	MOVQ  rk+0(FP), DI
	MOVQ  key+8(FP), SI
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	EXPANDEVEN(0x01, 32)
	EXPANDODD(48)
	EXPANDEVEN(0x02, 64)
	EXPANDODD(80)
	EXPANDEVEN(0x04, 96)
	EXPANDODD(112)
	EXPANDEVEN(0x08, 128)
	EXPANDODD(144)
	EXPANDEVEN(0x10, 160)
	EXPANDODD(176)
	EXPANDEVEN(0x20, 192)
	EXPANDODD(208)
	EXPANDEVEN(0x40, 224)
	PXOR  X0, X0
	PXOR  X1, X1
	PXOR  X2, X2
	PXOR  X3, X3
	RET

// LOADKEYS loads round keys 1 to 14 into X2..X15.
#define LOADKEYS \
	MOVOU 16(DI), X2;  \
	MOVOU 32(DI), X3;  \
	MOVOU 48(DI), X4;  \
	MOVOU 64(DI), X5;  \
	MOVOU 80(DI), X6;  \
	MOVOU 96(DI), X7;  \
	MOVOU 112(DI), X8; \
	MOVOU 128(DI), X9; \
	MOVOU 144(DI), X10; \
	MOVOU 160(DI), X11; \
	MOVOU 176(DI), X12; \
	MOVOU 192(DI), X13; \
	MOVOU 208(DI), X14; \
	MOVOU 224(DI), X15

// ROUNDS runs rounds 1 to 14 on x, which already holds the block XOR
// round key 0, under the keys LOADKEYS left in X2..X15.
#define ROUNDS(x) \
	AESENC     X2, x;  \
	AESENC     X3, x;  \
	AESENC     X4, x;  \
	AESENC     X5, x;  \
	AESENC     X6, x;  \
	AESENC     X7, x;  \
	AESENC     X8, x;  \
	AESENC     X9, x;  \
	AESENC     X10, x; \
	AESENC     X11, x; \
	AESENC     X12, x; \
	AESENC     X13, x; \
	AESENC     X14, x; \
	AESENCLAST X15, x

// CLEARKEYS clears X0..X15.
#define CLEARKEYS \
	PXOR X0, X0;   \
	PXOR X1, X1;   \
	PXOR X2, X2;   \
	PXOR X3, X3;   \
	PXOR X4, X4;   \
	PXOR X5, X5;   \
	PXOR X6, X6;   \
	PXOR X7, X7;   \
	PXOR X8, X8;   \
	PXOR X9, X9;   \
	PXOR X10, X10; \
	PXOR X11, X11; \
	PXOR X12, X12; \
	PXOR X13, X13; \
	PXOR X14, X14; \
	PXOR X15, X15

// COUNTERBLOCK sets x to 0⁹⁶ ‖ the 32-bit counter in r, big-endian: the
// counter block under GCM's all-zero 96-bit nonce. Clobbers AX.
#define COUNTERBLOCK(r, x) \
	MOVL   r, AX;  \
	BSWAPL AX;     \
	MOVL   AX, x;  \
	PSLLDQ $12, x

// func encryptHashAndMask(rk *roundKeys, out *[32]byte)
//
// Sets out[:16] to E_K(0¹²⁸), GHASH's key H, and out[16:] to E_K(J₀),
// the tag mask, J₀ = 0⁹⁶ ‖ 0x00000001.
TEXT ·encryptHashAndMask(SB), NOSPLIT, $0-16
	MOVQ  rk+0(FP), DI
	MOVQ  out+8(FP), SI
	LOADKEYS
	MOVOU 0(DI), X0
	MOVL  $1, CX
	COUNTERBLOCK(CX, X1)
	PXOR  X0, X1
	ROUNDS(X0)
	ROUNDS(X1)
	MOVOU X0, 0(SI)
	MOVOU X1, 16(SI)
	CLEARKEYS
	RET

// func xorKeyStreamAES(rk *roundKeys, dst, src []byte)
//
// Sets dst to src XOR the CTR keystream from counter 2 on (counter 1 made
// the tag mask). dst is at least as long as src, and the two are either
// equal or disjoint.
TEXT ·xorKeyStreamAES(SB), NOSPLIT, $0-56
	MOVQ rk+0(FP), DI
	MOVQ dst_base+8(FP), BX
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	LOADKEYS
	MOVL $2, DX

block:
	CMPQ  CX, $16
	JB    tail
	MOVOU 0(DI), X0
	COUNTERBLOCK(DX, X1)
	PXOR  X1, X0
	ROUNDS(X0)
	MOVOU (SI), X1
	PXOR  X1, X0
	MOVOU X0, (BX)
	INCL  DX
	ADDQ  $16, SI
	ADDQ  $16, BX
	SUBQ  $16, CX
	JMP   block

tail:
	TESTQ CX, CX
	JZ    done
	MOVOU 0(DI), X0
	COUNTERBLOCK(DX, X1)
	PXOR  X1, X0
	ROUNDS(X0)
	CMPQ  CX, $8
	JB    bytes
	MOVQ  X0, AX
	XORQ  (SI), AX
	MOVQ  AX, (BX)
	PSRLDQ $8, X0
	ADDQ  $8, SI
	ADDQ  $8, BX
	SUBQ  $8, CX

bytes:
	MOVQ X0, AX

byteloop:
	TESTQ CX, CX
	JZ    done
	MOVB  (SI), R8
	XORB  AX, R8
	MOVB  R8, (BX)
	SHRQ  $8, AX
	INCQ  SI
	INCQ  BX
	DECQ  CX
	JMP   byteloop

done:
	XORQ AX, AX
	XORQ R8, R8
	CLEARKEYS
	RET
