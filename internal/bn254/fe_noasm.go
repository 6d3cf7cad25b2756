//go:build !amd64

package bn254

// Off amd64 the base field has one path, the Go leaves; these names are
// what the towers call, and each inlines to its Go twin.

const fieldAsmSupported = false

// fieldAsm is always false here; the tests that run both paths read it.
var fieldAsm = false

func feMul(z, x, y *fe)                { feMulGeneric(z, x, y) }
func feSquare(z, x *fe)                { feSquareGeneric(z, x) }
func feMontReduce(z *fe, t *feWide)    { feMontReduceGeneric(z, t) }
func fe2WideMul(w *fe2Wide, a, b *fe2) { fe2WideMulGeneric(w, a, b) }
func fe2WideSquare(w *fe2Wide, a *fe2) { fe2WideSquareGeneric(w, a) }
func fe2WideReduce(e *fe2, w *fe2Wide) { fe2WideReduceGeneric(e, w) }
func fe2Add(e, a, b *fe2)              { fe2AddGeneric(e, a, b) }
func fe2Sub(e, a, b *fe2)              { fe2SubGeneric(e, a, b) }
func fe2WideAdd(w, a, b *fe2Wide)      { fe2WideAddGeneric(w, a, b) }
func fe2WideSub(w, a, b *fe2Wide)      { fe2WideSubGeneric(w, a, b) }
func fe2MulXi(e, a *fe2)               { fe2MulXiGeneric(e, a) }
func fe2WideAddMulXi(w, a, b *fe2Wide) { fe2WideAddMulXiGeneric(w, a, b) }
