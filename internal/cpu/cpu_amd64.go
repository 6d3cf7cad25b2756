package cpu

// AESNI reports AES-NI (CPUID leaf 1, ECX bit 25).
var AESNI = hasAESNI()

// BMI2ADX reports BMI2 and ADX (CPUID leaf 7, EBX bits 8 and 19): MULX,
// ADCX and ADOX.
var BMI2ADX = hasBMI2ADX()

// IFMA reports AVX-512 Foundation, IFMA and VL (CPUID leaf 7, EBX bits
// 16, 21 and 31), and an operating system that saves the vector state
// the lane kernels use: OSXSAVE (leaf 1, ECX bit 27) and XCR0's SSE, AVX,
// opmask and both ZMM bits (1, 2, 5, 6 and 7). Without the last, a
// kernel that touches a ZMM register would fault.
var IFMA = hasIFMA()

func maxLeaf() uint32 {
	a, _, _, _ := cpuid(0, 0)
	return a
}

func hasAESNI() bool {
	if maxLeaf() < 1 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const aesni = 1 << 25
	return c&aesni != 0
}

func hasBMI2ADX() bool {
	if maxLeaf() < 7 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return b&bmi2 != 0 && b&adx != 0
}

func hasIFMA() bool {
	if maxLeaf() < 7 {
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

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() (eax uint32)
