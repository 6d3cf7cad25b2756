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
