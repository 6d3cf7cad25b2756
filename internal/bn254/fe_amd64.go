package bn254

import "alpenhorn/internal/cpu"

// The base field's assembly kernels (fe_amd64.s). Each is declared here
// under the name the towers call, and each returns the same bits as its
// Go twin, the function of the same name plus "Generic": the kernel
// starts by testing fieldAsm and jumps to the twin when it is false.

// fieldAsmSupported reports whether the CPU has BMI2 and ADX, which the
// kernels need.
var fieldAsmSupported = cpu.BMI2ADX

// fieldAsm selects the kernels. It is set once, here, from the CPU, and
// only tests change it afterwards, never while other goroutines compute:
// it picks the path a property of the machine decides, not a value.
var fieldAsm = fieldAsmSupported

//go:noescape
func feMul(z, x, y *fe)

//go:noescape
func feSquare(z, x *fe)

//go:noescape
func feMontReduce(z *fe, t *feWide)

//go:noescape
func fe2WideMul(w *fe2Wide, a, b *fe2)

//go:noescape
func fe2WideSquare(w *fe2Wide, a *fe2)

//go:noescape
func fe2WideReduce(e *fe2, w *fe2Wide)

//go:noescape
func fe2Add(e, a, b *fe2)

//go:noescape
func fe2Sub(e, a, b *fe2)

//go:noescape
func fe2WideAdd(w, a, b *fe2Wide)

//go:noescape
func fe2WideSub(w, a, b *fe2Wide)

//go:noescape
func fe2MulXi(e, a *fe2)

//go:noescape
func fe2WideAddMulXi(w, a, b *fe2Wide)
