package aead

// The AES-NI kernels (aead_amd64.s). Unlike bn254's field kernels they
// have no Go twins: the portable path is aes.NewCipher's cipher.Block,
// and Seal and Open test aesAsm once to pick a path.

// aesAsmSupported reports whether the CPU has AES-NI (CPUID leaf 1, ECX
// bit 25), which the kernels need.
var aesAsmSupported = cpuHasAES()

// aesAsm selects the kernels. It is set once, here, from the CPU, and
// only tests change it afterwards, never while other goroutines seal or
// open: it picks the path a property of the machine decides, not a value.
var aesAsm = aesAsmSupported

func cpuHasAES() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const aesni = 1 << 25
	return c&aesni != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

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
