package aead

import "alpenhorn/internal/cpu"

// The AES-NI kernels (aead_amd64.s). Unlike bn254's field kernels they
// have no Go twins: the portable path is aes.NewCipher's cipher.Block,
// and Seal and Open test aesAsm once to pick a path.

// aesAsmSupported reports whether the CPU has AES-NI, which the kernels
// need.
var aesAsmSupported = cpu.AESNI

// aesAsm selects the kernels. It is set once, here, from the CPU, and
// only tests change it afterwards, never while other goroutines seal or
// open: it picks the path a property of the machine decides, not a value.
var aesAsm = aesAsmSupported

// expandKey sets rk to key's AES-256 encryption schedule.
//
//go:noescape
func expandKey(rk *roundKeys, key *[KeySize]byte)

// encryptHashAndMask sets out to E_K(0¹²⁸) ‖ E_K(J₀).
//
//go:noescape
func encryptHashAndMask(rk *roundKeys, out *[32]byte)

// xorKeyStreamAES sets dst to src XOR the CTR keystream from counter 2 on.
//
//go:noescape
func xorKeyStreamAES(rk *roundKeys, dst, src []byte)
