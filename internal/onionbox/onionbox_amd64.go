package onionbox

// The field's assembly kernels (onionbox_amd64.s). Each returns the same
// limbs as its Go twin, the function of the same name plus "Generic": the
// kernel starts by testing fieldAsm and jumps to the twin when it is
// false.

// fieldAsmSupported reports whether the CPU has BMI2 and ADX (CPUID leaf
// 7, EBX bits 8 and 19), which the kernels need.
var fieldAsmSupported = cpuHasBMI2ADX()

// fieldAsm selects the kernels. It is set once, here, from the CPU, and
// only tests change it afterwards, never while other goroutines compute:
// it picks the path a property of the machine decides, not a value.
var fieldAsm = fieldAsmSupported

func cpuHasBMI2ADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return b&bmi2 != 0 && b&adx != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

//go:noescape
func feMul(v, a, b *fe)

//go:noescape
func feSquare(v, a *fe)

// laneAsmSupported reports whether the CPU runs the lane kernels:
// AVX-512 Foundation, IFMA and VL (CPUID leaf 7, EBX bits 16, 21 and 31),
// and an operating system that saves the vector state the kernel uses —
// OSXSAVE (leaf 1, ECX bit 27) and XCR0's SSE, AVX, opmask and both ZMM
// bits (1, 2, 5, 6 and 7). Without the last, the kernel would fault.
var laneAsmSupported = cpuHasIFMA()

// laneAsm selects the lane ladder in openBatch and the lane comb in
// sealInPlace. Like fieldAsm it is set once, here, from the CPU, and only
// tests change it.
var laneAsm = laneAsmSupported

func cpuHasIFMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx512f, avx512ifma, avx512vl = 1 << 16, 1 << 21, 1 << 31
	if b&avx512f == 0 || b&avx512ifma == 0 || b&avx512vl == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return xgetbv()&zmmState == zmmState
}

// xgetbv returns the low half of XCR0.
func xgetbv() (eax uint32)

//go:noescape
func laneLadderKernel(s *laneLadderState, k *[32]byte)

//go:noescape
func laneCombKernel(s *laneCombState, t *laneCombTable)
