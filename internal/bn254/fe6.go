package bn254

import "fmt"

// fe6 is an element of Fp6 = Fp2[v]/(v³ − ξ), stored as c0 + c1·v + c2·v²
// with ξ = 9 + i.
type fe6 struct {
	c0, c1, c2 fe2
}

func (e *fe6) String() string {
	return fmt.Sprintf("(%v + %v·v + %v·v²)", &e.c0, &e.c1, &e.c2)
}

func (e *fe6) Set(a *fe6) *fe6 {
	*e = *a
	return e
}

func (e *fe6) SetZero() *fe6 {
	*e = fe6{}
	return e
}

func (e *fe6) SetOne() *fe6 {
	e.c0.SetOne()
	e.c1.SetZero()
	e.c2.SetZero()
	return e
}

func (e *fe6) IsZero() bool { return e.c0.IsZero() && e.c1.IsZero() && e.c2.IsZero() }

func (e *fe6) IsOne() bool { return e.c0.IsOne() && e.c1.IsZero() && e.c2.IsZero() }

func (e *fe6) Equal(a *fe6) bool {
	return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1) && e.c2.Equal(&a.c2)
}

func (e *fe6) Add(a, b *fe6) *fe6 {
	e.c0.Add(&a.c0, &b.c0)
	e.c1.Add(&a.c1, &b.c1)
	e.c2.Add(&a.c2, &b.c2)
	return e
}

func (e *fe6) Sub(a, b *fe6) *fe6 {
	e.c0.Sub(&a.c0, &b.c0)
	e.c1.Sub(&a.c1, &b.c1)
	e.c2.Sub(&a.c2, &b.c2)
	return e
}

func (e *fe6) Neg(a *fe6) *fe6 {
	e.c0.Neg(&a.c0)
	e.c1.Neg(&a.c1)
	e.c2.Neg(&a.c2)
	return e
}

// Mul sets e = a·b with the reduction v³ = ξ, using the Karatsuba
// interpolation of Devegili et al. (six Fp2 multiplications):
//
//	v0 = a0b0, v1 = a1b1, v2 = a2b2
//	e0 = v0 + ξ((a1+a2)(b1+b2) − v1 − v2)
//	e1 = (a0+a1)(b0+b1) − v0 − v1 + ξ·v2
//	e2 = (a0+a2)(b0+b2) − v0 − v2 + v1
//
// The six products stay unreduced (fe2Wide) through the interpolation and
// the multiplications by ξ, so the whole costs six Montgomery reductions —
// one per output coefficient — instead of eighteen. Every fe2Wide here is
// under P·2²⁵⁶ by that type's invariant: mul takes the reduced sums
// a_i+a_j, b_i+b_j, and sub, add and addMulXi preserve the bound.
// Receiver may alias either operand: e is written only once the last
// product has been taken.
func (e *fe6) Mul(a, b *fe6) *fe6 {
	var v0, v1, v2, t fe2Wide
	var sa, sb, e0, e1 fe2
	v0.mul(&a.c0, &b.c0)
	v1.mul(&a.c1, &b.c1)
	v2.mul(&a.c2, &b.c2)

	sa.Add(&a.c1, &a.c2)
	sb.Add(&b.c1, &b.c2)
	t.mul(&sa, &sb)
	t.sub(&t, &v1)
	t.sub(&t, &v2)
	t.addMulXi(&v0, &t)
	t.reduce(&e0)

	sa.Add(&a.c0, &a.c1)
	sb.Add(&b.c0, &b.c1)
	t.mul(&sa, &sb)
	t.sub(&t, &v0)
	t.sub(&t, &v1)
	t.addMulXi(&t, &v2)
	t.reduce(&e1)

	sa.Add(&a.c0, &a.c2)
	sb.Add(&b.c0, &b.c2)
	t.mul(&sa, &sb)
	t.sub(&t, &v0)
	t.sub(&t, &v2)
	t.add(&t, &v1)
	t.reduce(&e.c2)
	e.c0, e.c1 = e0, e1
	return e
}

// MulV sets e = a·v: (c0 + c1·v + c2·v²)·v = ξ·c2 + c0·v + c1·v².
func (e *fe6) MulV(a *fe6) *fe6 {
	var t fe2
	t.MulXi(&a.c2)
	e.c2 = a.c1
	e.c1 = a.c0
	e.c0 = t
	return e
}

func (e *fe6) Square(a *fe6) *fe6 {
	return e.Mul(a, a)
}

// mulBy01fe2 is mulBy01 with a full Fp2 constant term: e = a·(b0 + b1·v),
// b0, b1 ∈ Fp2 — the w-odd half of an ate line (the ate ladder runs on the
// twist, so its line coefficients are Fp2 values, not Fp):
//
//	e0 = b0·a0 + ξ·(b1·a2)
//	e1 = b0·a1 + b1·a0 = (b0+b1)(a0+a1) − b0·a0 − b1·a1
//	e2 = b0·a2 + b1·a1
//
// Five Fp2 products (Karatsuba on e1), kept unreduced like fe6.Mul's, and
// six reductions. Receiver may alias a.
func (e *fe6) mulBy01fe2(a *fe6, b0, b1 *fe2) *fe6 {
	var p00, p11, t fe2Wide
	var sa, sb, e0, e1 fe2
	p00.mul(b0, &a.c0)
	p11.mul(b1, &a.c1)

	t.mul(b1, &a.c2)
	t.addMulXi(&p00, &t)
	t.reduce(&e0)

	sa.Add(&a.c0, &a.c1)
	sb.Add(b0, b1)
	t.mul(&sb, &sa)
	t.sub(&t, &p00)
	t.sub(&t, &p11)
	t.reduce(&e1)

	t.mul(b0, &a.c2)
	t.add(&t, &p11)
	t.reduce(&e.c2)
	e.c0, e.c1 = e0, e1
	return e
}

// Invert sets e = a⁻¹ using the standard formula for cubic extensions:
//
//	A = c0² − ξ·c1·c2,  B = ξ·c2² − c0·c1,  C = c1² − c0·c2
//	F = c0·A + ξ·c1·C + ξ·c2·B
//	a⁻¹ = (A + B·v + C·v²) / F
func (e *fe6) Invert(a *fe6) *fe6 {
	var A, B, C, t fe2
	A.Square(&a.c0)
	t.Mul(&a.c1, &a.c2)
	t.MulXi(&t)
	A.Sub(&A, &t)

	B.Square(&a.c2)
	B.MulXi(&B)
	t.Mul(&a.c0, &a.c1)
	B.Sub(&B, &t)

	C.Square(&a.c1)
	t.Mul(&a.c0, &a.c2)
	C.Sub(&C, &t)

	var F, f1, f2 fe2
	F.Mul(&a.c0, &A)
	f1.Mul(&a.c1, &C)
	f1.MulXi(&f1)
	f2.Mul(&a.c2, &B)
	f2.MulXi(&f2)
	F.Add(&F, &f1)
	F.Add(&F, &f2)
	if F.IsZero() {
		panic("bn254: inversion of zero in Fp6")
	}
	var Finv fe2
	Finv.Invert(&F)

	e.c0.Mul(&A, &Finv)
	e.c1.Mul(&B, &Finv)
	e.c2.Mul(&C, &Finv)
	return e
}
