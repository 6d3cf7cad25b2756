package bn254

import (
	"fmt"
	"math/big"
)

// fe12 is an element of Fp12 = Fp6[w]/(w² − v), stored as c0 + c1·w.
// Note w⁶ = v³ = ξ, so w is a sixth root of ξ.
type fe12 struct {
	c0, c1 fe6
}

func (e *fe12) String() string {
	return fmt.Sprintf("(%v + %v·w)", &e.c0, &e.c1)
}

func (e *fe12) Set(a *fe12) *fe12 {
	*e = *a
	return e
}

func (e *fe12) SetOne() *fe12 {
	e.c0.SetOne()
	e.c1.SetZero()
	return e
}

func (e *fe12) IsZero() bool { return e.c0.IsZero() && e.c1.IsZero() }

func (e *fe12) IsOne() bool { return e.c0.IsOne() && e.c1.IsZero() }

func (e *fe12) Equal(a *fe12) bool { return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1) }

// Mul sets e = a·b with the reduction w² = v, using Karatsuba (three Fp6
// multiplications):
//
//	v0 = a0b0, v1 = a1b1
//	e0 = v0 + v·v1
//	e1 = (a0+a1)(b0+b1) − v0 − v1
func (e *fe12) Mul(a, b *fe12) *fe12 {
	var v0, v1, cross, sa, sb fe6
	v0.Mul(&a.c0, &b.c0)
	v1.Mul(&a.c1, &b.c1)
	sa.Add(&a.c0, &a.c1)
	sb.Add(&b.c0, &b.c1)
	cross.Mul(&sa, &sb)
	cross.Sub(&cross, &v0)
	e.c1.Sub(&cross, &v1)
	var vv1 fe6
	vv1.MulV(&v1)
	e.c0.Add(&v0, &vv1)
	return e
}

// Square sets e = a² using the complex squaring shortcut (two Fp6
// multiplications): with t = a0·a1,
//
//	e0 = (a0+a1)(a0+v·a1) − t − v·t
//	e1 = 2t
func (e *fe12) Square(a *fe12) *fe12 {
	var t, s, sum, mix, vt fe6
	t.Mul(&a.c0, &a.c1)
	sum.Add(&a.c0, &a.c1)
	mix.MulV(&a.c1)
	mix.Add(&a.c0, &mix)
	s.Mul(&sum, &mix)
	s.Sub(&s, &t)
	vt.MulV(&t)
	s.Sub(&s, &vt)
	e.c0 = s
	e.c1.Add(&t, &t)
	return e
}

// mulAteLineMonic sets e = a·ℓ for a monic line ℓ = 1 + b·w + la·w³, the
// shape of a replayed line table (g2AteLines, ateFixedPoint). With
// L1 = b + la·v, e0 = a0 + v·(a1·L1) and e1 = a1 + a0·L1: two sparse Fp6
// products, 10 Fp2 multiplications against the 13 of a general line.
func (e *fe12) mulAteLineMonic(a *fe12, b, la *fe2) *fe12 {
	var v0, v1 fe6
	v0.mulBy01fe2(&a.c0, b, la)
	v1.mulBy01fe2(&a.c1, b, la)
	v1.MulV(&v1)
	e.c1.Add(&a.c1, &v0)
	e.c0.Add(&a.c0, &v1)
	return e
}

// Conjugate sets e = a0 − a1·w: the p⁶-power Frobenius map.
func (e *fe12) Conjugate(a *fe12) *fe12 {
	e.c0 = a.c0
	e.c1.Neg(&a.c1)
	return e
}

// Invert sets e = a⁻¹ = (a0 − a1·w) / (a0² − v·a1²).
func (e *fe12) Invert(a *fe12) *fe12 {
	var t0, t1 fe6
	t0.Square(&a.c0)
	t1.Square(&a.c1)
	t1.MulV(&t1)
	t0.Sub(&t0, &t1)
	if t0.IsZero() {
		panic("bn254: inversion of zero in Fp12")
	}
	var tInv fe6
	tInv.Invert(&t0)
	e.c0.Mul(&a.c0, &tInv)
	var negC1 fe6
	negC1.Neg(&a.c1)
	e.c1.Mul(&negC1, &tInv)
	return e
}

// Exp sets e = a^k using plain square-and-multiply. Negative k is not
// supported.
func (e *fe12) Exp(a *fe12, k *big.Int) *fe12 {
	if k.Sign() < 0 {
		panic("bn254: negative exponent in Fp12")
	}
	var acc fe12
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

// CyclotomicSquare sets e = a² for a in the cyclotomic subgroup
// G_{Φ6(p²)} (elements g with g^(p⁴−p²+1) = 1, e.g. anything already
// raised to (p⁶−1)(p²+1)). Granger-Scott squaring [eprint 2009/565 §3.2]
// exploits the subgroup structure to square with 9 Fp2 squarings — half
// the base-field multiplications of a generic Square. The result is WRONG
// for elements outside the subgroup; only the final exponentiation's hard
// part uses it, and the differential pairing tests pin the combination.
//
// Writing a = (x0 + x1·v + x2·v²) + (x3 + x4·v + x5·v²)·w:
//
//	e0 = 3(x4²·ξ + x0²) − 2x0      e3 = 3·2x1x5·ξ + 2x3
//	e1 = 3(x2²·ξ + x3²) − 2x1      e4 = 3·2x0x4 + 2x4
//	e2 = 3(x5²·ξ + x1²) − 2x2      e5 = 3·2x2x3 + 2x5
//
// (the −2x/+2x terms use the conjugate structure of the subgroup).
func (e *fe12) CyclotomicSquare(a *fe12) *fe12 {
	// Per pair (x, y) ∈ {(x4, x0), (x2, x3), (x5, x1)}: x², y² and (x+y)²
	// as unreduced squares, then ξ·x² + y² and 2xy = (x+y)² − x² − y²
	// reduced once per coefficient — twelve reductions for the nine
	// squarings instead of eighteen. Bounds are fe2Wide's invariant.
	var t [6]fe2
	cycloPair(&t[0], &t[3], &a.c1.c1, &a.c0.c0) // x4²·ξ + x0², 2x4x0
	cycloPair(&t[1], &t[4], &a.c0.c2, &a.c1.c0) // x2²·ξ + x3², 2x2x3
	cycloPair(&t[2], &t[5], &a.c1.c2, &a.c0.c1) // x5²·ξ + x1², 2x5x1
	t[5].MulXi(&t[5])                           // 2x5x1·ξ

	var s fe2
	s.Sub(&t[0], &a.c0.c0)
	s.Double(&s)
	e.c0.c0.Add(&s, &t[0])
	s.Sub(&t[1], &a.c0.c1)
	s.Double(&s)
	e.c0.c1.Add(&s, &t[1])
	s.Sub(&t[2], &a.c0.c2)
	s.Double(&s)
	e.c0.c2.Add(&s, &t[2])

	s.Add(&t[5], &a.c1.c0)
	s.Double(&s)
	e.c1.c0.Add(&s, &t[5])
	s.Add(&t[3], &a.c1.c1)
	s.Double(&s)
	e.c1.c1.Add(&s, &t[3])
	s.Add(&t[4], &a.c1.c2)
	s.Double(&s)
	e.c1.c2.Add(&s, &t[4])
	return e
}

// cycloPair sets mix = x²·ξ + y² and cross = 2xy.
func cycloPair(mix, cross *fe2, x, y *fe2) {
	var xx, yy, ss fe2Wide
	var sum fe2
	xx.square(x)
	yy.square(y)
	sum.Add(x, y)
	ss.square(&sum)
	ss.sub(&ss, &xx)
	ss.sub(&ss, &yy)
	ss.reduce(cross)
	yy.addMulXi(&yy, &xx)
	yy.reduce(mix)
}

// FrobeniusP2 sets e = a^(p²). On the tower basis {w^k : k = 0..5} over
// Fp2 the map is coefficient-wise: Fp2 coefficients are fixed (they have
// order dividing p²−1) and w^k picks up γ^k with γ = ξ^((p²−1)/6). The γ
// powers are derived at startup, not hardcoded.
func (e *fe12) FrobeniusP2(a *fe12) *fe12 {
	// Basis slots as powers of w: c0.c0 = w⁰, c1.c0 = w¹, c0.c1 = w²,
	// c1.c1 = w³, c0.c2 = w⁴, c1.c2 = w⁵.
	e.c0.c0 = a.c0.c0
	e.c1.c0.Mul(&a.c1.c0, &frobGammaP2[0])
	e.c0.c1.Mul(&a.c0.c1, &frobGammaP2[1])
	e.c1.c1.Mul(&a.c1.c1, &frobGammaP2[2])
	e.c0.c2.Mul(&a.c0.c2, &frobGammaP2[3])
	e.c1.c2.Mul(&a.c1.c2, &frobGammaP2[4])
	return e
}

// frobGammaP2[k−1] = γ^k for k = 1..5, γ = ξ^((p²−1)/6) ∈ Fp2.
var frobGammaP2 = deriveFrobGammaP2()

func deriveFrobGammaP2() (g [5]fe2) {
	exp := new(big.Int).Mul(P, P)
	exp.Sub(exp, big.NewInt(1))
	if new(big.Int).Mod(exp, big.NewInt(6)).Sign() != 0 {
		panic("bn254: 6 does not divide p²−1")
	}
	exp.Div(exp, big.NewInt(6))
	xi := fe2FromBig(big.NewInt(9), big.NewInt(1))
	var gamma fe2
	gamma.Exp(&xi, exp)
	g[0] = gamma
	for i := 1; i < 5; i++ {
		g[i].Mul(&g[i-1], &gamma)
	}
	return
}
