package bn254

import (
	"fmt"
	"math/big"
	"math/bits"
)

// fe2 is an element of Fp2 = Fp[i]/(i²+1), stored as c0 + c1·i with both
// coefficients in Montgomery form: a plain value type with no interior
// pointers, so tower elements live on the stack.
type fe2 struct {
	c0, c1 fe
}

func (e *fe2) String() string {
	return fmt.Sprintf("(%v + %v·i)", feToBig(&e.c0), feToBig(&e.c1))
}

func (e *fe2) Set(a *fe2) *fe2 {
	*e = *a
	return e
}

func (e *fe2) SetZero() *fe2 {
	*e = fe2{}
	return e
}

func (e *fe2) SetOne() *fe2 {
	e.c0 = feOne
	e.c1 = fe{}
	return e
}

func (e *fe2) IsZero() bool { return e.c0.IsZero() && e.c1.IsZero() }

func (e *fe2) IsOne() bool { return e.c0.Equal(&feOne) && e.c1.IsZero() }

func (e *fe2) Equal(a *fe2) bool { return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1) }

func (e *fe2) Add(a, b *fe2) *fe2 {
	fe2Add(e, a, b)
	return e
}

func (e *fe2) Sub(a, b *fe2) *fe2 {
	fe2Sub(e, a, b)
	return e
}

func (e *fe2) Double(a *fe2) *fe2 {
	fe2Add(e, a, a)
	return e
}

// fe2AddGeneric sets e = a + b; fe2Add is its name for the methods.
func fe2AddGeneric(e, a, b *fe2) {
	feAdd(&e.c0, &a.c0, &b.c0)
	feAdd(&e.c1, &a.c1, &b.c1)
}

// fe2SubGeneric sets e = a − b; fe2Sub is its name for the methods.
func fe2SubGeneric(e, a, b *fe2) {
	feSub(&e.c0, &a.c0, &b.c0)
	feSub(&e.c1, &a.c1, &b.c1)
}

func (e *fe2) Neg(a *fe2) *fe2 {
	feNeg(&e.c0, &a.c0)
	feNeg(&e.c1, &a.c1)
	return e
}

// Conjugate sets e = a0 − a1·i.
func (e *fe2) Conjugate(a *fe2) *fe2 {
	e.c0 = a.c0
	feNeg(&e.c1, &a.c1)
	return e
}

// Mul sets e = a·b = (a0b0 − a1b1) + (a0b1 + a1b0)·i: three limb products
// (Karatsuba) kept at 512 bits and two Montgomery reductions, one per
// output coefficient. Receiver may alias either operand.
func (e *fe2) Mul(a, b *fe2) *fe2 {
	var w fe2Wide
	w.mul(a, b)
	w.reduce(e)
	return e
}

// MulFe sets e = a·k for k ∈ Fp.
func (e *fe2) MulFe(a *fe2, k *fe) *fe2 {
	feMul(&e.c0, &a.c0, k)
	feMul(&e.c1, &a.c1, k)
	return e
}

// Square sets e = a² = (a0+a1)(a0−a1) + 2a0a1·i. The sum a0+a1 and the
// double 2a0 stay unreduced (< 2P): feMul's first operand may be.
func (e *fe2) Square(a *fe2) *fe2 {
	var sum, diff, dbl fe
	feAddUnreduced(&sum, &a.c0, &a.c1)
	feSub(&diff, &a.c0, &a.c1)
	feAddUnreduced(&dbl, &a.c0, &a.c0)
	feMul(&e.c1, &dbl, &a.c1)
	feMul(&e.c0, &sum, &diff)
	return e
}

// fe2Wide is an Fp2 element whose coefficients are unreduced 512-bit
// values: what a product looks like before its Montgomery reductions.
// The towers add, subtract and multiply by ξ in this form and reduce
// once per output coefficient (Aranha et al., "Faster explicit formulas
// for computing pairings over ordinary curves", §5).
//
// Invariant: both coefficients are < P·2²⁵⁶, always — every method below
// takes operands under that bound and leaves its result under it, so
// reduce's precondition holds wherever it is called. A coefficient is
// congruent mod P to the value it stands for (times R), not equal to it:
// sub and addMulXi correct by multiples of P·2²⁵⁶.
type fe2Wide struct {
	c0, c1 feWide
}

// mul sets w = a·b for reduced a, b (fe2WideMul).
func (w *fe2Wide) mul(a, b *fe2) { fe2WideMul(w, a, b) }

// fe2WideMulGeneric sets w = a·b for reduced a, b. With T0 = a0b0,
// T1 = a1b1 < P² and T2 = (a0+a1)(b0+b1) < 4P² (the sums unreduced,
// < 2P), c1 = T2 − T0 − T1 = a0b1 + a1b0 is exact and < 2P² < P·2²⁵⁶;
// c0 = T0 − T1 may borrow and takes the P·2²⁵⁶ correction.
func fe2WideMulGeneric(w *fe2Wide, a, b *fe2) {
	var sa, sb fe
	var t0, t1 feWide
	feAddUnreduced(&sa, &a.c0, &a.c1)
	feAddUnreduced(&sb, &b.c0, &b.c1)
	feMulWide(&t0, &a.c0, &b.c0)
	feMulWide(&t1, &a.c1, &b.c1)
	feMulWide(&w.c1, &sa, &sb)
	feWideSub(&w.c1, &w.c1, &t0)
	feWideSub(&w.c1, &w.c1, &t1)
	feWideSubMod(&w.c0, &t0, &t1)
}

// square sets w = a² for reduced a (fe2WideSquare).
func (w *fe2Wide) square(a *fe2) { fe2WideSquare(w, a) }

// fe2WideSquareGeneric sets w = a² for reduced a: c0 = (a0+a1)(a0−a1)
// with the sum unreduced (< 2P) and the difference reduced,
// c1 = (2a0)·a1 with the double unreduced; both products are
// < 2P² < P·2²⁵⁶.
func fe2WideSquareGeneric(w *fe2Wide, a *fe2) {
	var sum, diff, dbl fe
	feAddUnreduced(&sum, &a.c0, &a.c1)
	feSub(&diff, &a.c0, &a.c1)
	feAddUnreduced(&dbl, &a.c0, &a.c0)
	feMulWide(&w.c0, &sum, &diff)
	feMulWide(&w.c1, &dbl, &a.c1)
}

func (w *fe2Wide) add(a, b *fe2Wide) { fe2WideAdd(w, a, b) }

func (w *fe2Wide) sub(a, b *fe2Wide) { fe2WideSub(w, a, b) }

func fe2WideAddGeneric(w, a, b *fe2Wide) {
	feWideAddMod(&w.c0, &a.c0, &b.c0)
	feWideAddMod(&w.c1, &a.c1, &b.c1)
}

func fe2WideSubGeneric(w, a, b *fe2Wide) {
	feWideSubMod(&w.c0, &a.c0, &b.c0)
	feWideSubMod(&w.c1, &a.c1, &b.c1)
}

// addMulXi sets w = a + ξ·b, ξ = 9 + i:
// (a0 + 9b0 − b1) + (a1 + 9b1 + b0)·i. w may alias a or b.
func (w *fe2Wide) addMulXi(a, b *fe2Wide) { fe2WideAddMulXi(w, a, b) }

// fe2WideAddMulXiGeneric is addMulXi on the Go leaves.
func fe2WideAddMulXiGeneric(w, a, b *fe2Wide) {
	var c0 feWide
	feWideMul9SubAdd(&c0, &b.c0, &b.c1, &a.c0)
	feWideMul9AddAdd(&w.c1, &b.c1, &b.c0, &a.c1)
	w.c0 = c0
}

// reduce sets e to the reduced element w stands for (fe2WideReduce).
func (w *fe2Wide) reduce(e *fe2) { fe2WideReduce(e, w) }

// fe2WideReduceGeneric sets e to the reduced element w stands for: one
// Montgomery reduction per coefficient.
func fe2WideReduceGeneric(e *fe2, w *fe2Wide) {
	feMontReduceGeneric(&e.c0, &w.c0)
	feMontReduceGeneric(&e.c1, &w.c1)
}

// Invert sets e = a⁻¹ = conj(a)/(a0² + a1²). Panics on zero.
func (e *fe2) Invert(a *fe2) *fe2 {
	var n0, n1, norm, inv fe
	feSquare(&n0, &a.c0)
	feSquare(&n1, &a.c1)
	feAdd(&norm, &n0, &n1)
	if norm.IsZero() {
		panic("bn254: inversion of zero in Fp2")
	}
	feInv(&inv, &norm)
	feMul(&e.c0, &a.c0, &inv)
	var negC1 fe
	feNeg(&negC1, &a.c1)
	feMul(&e.c1, &negC1, &inv)
	return e
}

// MulXi sets e = a·ξ where ξ = 9 + i is the Fp6 non-residue:
// (9a0 − a1) + (9a1 + a0)·i. Each coefficient is summed unreduced as a
// five-limb value — 8a0 + a0 + P − a1 and 8a1 + a1 + a0, both in
// [0, 10P] — and reduced once.
func (e *fe2) MulXi(a *fe2) *fe2 {
	fe2MulXi(e, a)
	return e
}

// fe2MulXiGeneric is MulXi on the Go leaves.
func fe2MulXiGeneric(e, a *fe2) {
	x, y := &a.c0, &a.c1
	var c, b uint64

	s0, s1, s2, s3, s4 := feTimes9(x) // 9x + P − y
	s0, c = bits.Add64(s0, feP0, 0)
	s1, c = bits.Add64(s1, feP1, c)
	s2, c = bits.Add64(s2, feP2, c)
	s3, c = bits.Add64(s3, feP3, c)
	s4 += c
	s0, b = bits.Sub64(s0, y[0], 0)
	s1, b = bits.Sub64(s1, y[1], b)
	s2, b = bits.Sub64(s2, y[2], b)
	s3, b = bits.Sub64(s3, y[3], b)
	s4 -= b

	t0, t1, t2, t3, t4 := feTimes9(y) // 9y + x
	t0, c = bits.Add64(t0, x[0], 0)
	t1, c = bits.Add64(t1, x[1], c)
	t2, c = bits.Add64(t2, x[2], c)
	t3, c = bits.Add64(t3, x[3], c)
	t4 += c

	e.c0[0], e.c0[1], e.c0[2], e.c0[3] = feReduce5(s0, s1, s2, s3, s4)
	e.c1[0], e.c1[1], e.c1[2], e.c1[3] = feReduce5(t0, t1, t2, t3, t4)
}

// Exp sets e = a^k using square-and-multiply (k ≥ 0, not secret).
func (e *fe2) Exp(a *fe2, k *big.Int) *fe2 {
	var acc fe2
	acc.SetOne()
	base := *a
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if k.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return e.Set(&acc)
}

// Sqrt sets e to a square root of a and returns true, or returns false if
// a is not a square in Fp2, mirroring the big.Int reference's root choices
// exactly (complex method for p ≡ 3 mod 4).
func (e *fe2) Sqrt(a *fe2) bool {
	if a.IsZero() {
		e.SetZero()
		return true
	}
	if a.c1.IsZero() {
		var r fe
		if feSqrt(&r, &a.c0) {
			e.c0, e.c1 = r, fe{}
			return true
		}
		var neg fe
		feNeg(&neg, &a.c0)
		if feSqrt(&r, &neg) {
			e.c0, e.c1 = fe{}, r
			return true
		}
		return false
	}
	var n0, n1, norm, alpha fe
	feSquare(&n0, &a.c0)
	feSquare(&n1, &a.c1)
	feAdd(&norm, &n0, &n1)
	if !feSqrt(&alpha, &norm) {
		return false
	}
	var delta, x0 fe
	feAdd(&delta, &a.c0, &alpha)
	feMul(&delta, &delta, &feHalf)
	if !feSqrt(&x0, &delta) {
		feSub(&delta, &a.c0, &alpha)
		feMul(&delta, &delta, &feHalf)
		if !feSqrt(&x0, &delta) {
			return false
		}
	}
	// x1 = a1 / (2·x0)
	var den, x1 fe
	feDouble(&den, &x0)
	feInv(&den, &den)
	feMul(&x1, &a.c1, &den)
	cand := fe2{c0: x0, c1: x1}
	var check fe2
	if !check.Square(&cand).Equal(a) {
		return false
	}
	return e.Set(&cand) != nil
}

// feHalf is 1/2 mod P in Montgomery form.
var feHalf = feDeriveHalf()

func feDeriveHalf() fe {
	var z fe
	half := new(big.Int).ModInverse(big.NewInt(2), P)
	feFromBig(&z, half)
	return z
}

// fe2FromBig converts big.Int coordinates into an fe2.
func fe2FromBig(a0, a1 *big.Int) (z fe2) {
	feFromBig(&z.c0, a0)
	feFromBig(&z.c1, a1)
	return
}
