package bn254

import "alpenhorn/internal/cpu"

// The lane field's kernels (lane_amd64.s) on AVX-512 IFMA. Unlike the
// field kernels of fe_amd64.s they have no Go twins and do not test a
// flag: nothing calls them unless laneAsm is set.

// laneAsmSupported reports whether the CPU runs the lane kernels:
// AVX-512 IFMA, and an operating system that saves the ZMM state
// (cpu.IFMA).
var laneAsmSupported = cpu.IFMA

// laneAsm selects the lane pairing in PairMarshalledBatch. Like fieldAsm
// it is set once, here, from the CPU, and only tests change it.
var laneAsm = laneAsmSupported

//go:noescape
func laneMul(z, x, y *laneFe)

//go:noescape
func laneAdd(z, x, y *laneFe)

//go:noescape
func laneSub(z, x, y *laneFe)

//go:noescape
func lane2Mul(z, x, y *lane2)

//go:noescape
func lane2Square(z, x *lane2)

//go:noescape
func lane2Add(z, x, y *lane2)

//go:noescape
func lane2Sub(z, x, y *lane2)

//go:noescape
func lane2MulXi(z, x *lane2)

func laneZeroRegs()

//go:noescape
func lane6Add(z, x, y *lane6)

//go:noescape
func lane6Sub(z, x, y *lane6)
