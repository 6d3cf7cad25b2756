//go:build !amd64

package onionbox

// Off amd64 the field has one path, the Go twins; these names are what
// fe.mul and fe.square call, and each inlines to its twin.

const fieldAsmSupported = false

// fieldAsm is always false here; the tests that run both paths read it.
var fieldAsm = false

func feMul(v, a, b *fe) { feMulGeneric(v, a, b) }
func feSquare(v, a *fe) { feSquareGeneric(v, a) }

// There is no lane ladder or lane comb here: laneAsm is always false,
// and neither openBatch nor sealInPlace calls a kernel.
const laneAsmSupported = false

var laneAsm = false

func laneLadderKernel(s *laneLadderState, k *[32]byte) {
	panic("onionbox: the lane ladder needs amd64")
}

func laneCombKernel(s *laneCombState, t *laneCombTable) {
	panic("onionbox: the lane comb needs amd64")
}
