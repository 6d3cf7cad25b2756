package onionbox

import "alpenhorn/internal/cpu"

// The field's assembly kernels (onionbox_amd64.s). Each returns the same
// limbs as its Go twin, the function of the same name plus "Generic": the
// kernel starts by testing fieldAsm and jumps to the twin when it is
// false.

// fieldAsmSupported reports whether the CPU has BMI2 and ADX, which the
// kernels need.
var fieldAsmSupported = cpu.BMI2ADX

// fieldAsm selects the kernels. It is set once, here, from the CPU, and
// only tests change it afterwards, never while other goroutines compute:
// it picks the path a property of the machine decides, not a value.
var fieldAsm = fieldAsmSupported

//go:noescape
func feMul(v, a, b *fe)

//go:noescape
func feSquare(v, a *fe)

// laneAsmSupported reports whether the CPU runs the lane kernels:
// AVX-512 IFMA, and an operating system that saves the ZMM state
// (cpu.IFMA). Without the last, the kernel would fault.
var laneAsmSupported = cpu.IFMA

// laneAsm selects the lane ladder in openBatch and the lane comb in
// sealInPlace. Like fieldAsm it is set once, here, from the CPU, and only
// tests change it.
var laneAsm = laneAsmSupported

//go:noescape
func laneLadderKernel(s *laneLadderState, k *[32]byte)

//go:noescape
func laneCombKernel(s *laneCombState, t *laneCombTable)
