package bn254

import "math/big"

// This file implements the reduced Tate pairing
//
//	refPair(P, Q) = f_{r,P}(ψ(Q))^((p¹²−1)/r)
//
// where P ∈ refG1 ⊂ E(Fp), Q ∈ refG2 ⊂ E'(Fp2), r = Order, and ψ is the
// untwisting isomorphism ψ(x', y') = (x'·w², y'·w³) into E(Fp12).
//
// Two classic, embedding-degree-12 optimizations are used; both preserve the
// pairing value exactly and are exercised by the bilinearity property tests:
//
//  1. Denominator elimination. The vertical-line evaluations v(ψ(Q)) are
//     elements of the subfield Fp6 (ψ(Q)'s x-coordinate is x'·v with
//     x' ∈ Fp2). Since (p⁶−1) divides the final exponent, every Fp6 element
//     is mapped to 1 by the final exponentiation, so verticals can be
//     dropped from the Miller loop entirely.
//
//  2. Easy-part split of the final exponentiation:
//     (p¹²−1)/r = (p⁶−1)·m with m = (p⁶+1)/r. The p⁶-power Frobenius on
//     Fp12/Fp6 is conjugation (w → −w), so f^(p⁶−1) = conj(f)·f⁻¹ costs one
//     inversion, after which a single ~1270-bit generic exponentiation by m
//     remains. No hardcoded Frobenius constants are needed.

// tateExp is the final-exponentiation exponent (P¹² − 1) / Order, used by
// the reference backend's generic final exponentiation.
var tateExp *big.Int

func init() {
	p12 := new(big.Int).Exp(P, big.NewInt(12), nil)
	p12.Sub(p12, big.NewInt(1))
	rem := new(big.Int)
	tateExp, rem = new(big.Int).QuoRem(p12, Order, rem)
	if rem.Sign() != 0 {
		panic("bn254: Order does not divide p^12 - 1")
	}
}

// finalExpM is m = (p⁶+1)/r, the hard-part exponent.
var finalExpM *big.Int

func init() {
	p6 := new(big.Int).Exp(P, big.NewInt(6), nil)
	p6.Add(p6, big.NewInt(1))
	rem := new(big.Int)
	finalExpM, rem = new(big.Int).QuoRem(p6, Order, rem)
	if rem.Sign() != 0 {
		panic("bn254: Order does not divide p^6 + 1")
	}
}

// refTwistToFp12 returns the untwisted coordinates ψ(Q) = (x·w², y·w³) as two
// Fp12 elements. With Fp12 = Fp6[w]/(w²−v) and Fp6 = Fp2[v]/(v³−ξ):
//
//	x·w² = x·v   → gfP12{c0: gfP6{c1: x}, c1: 0}
//	y·w³ = y·v·w → gfP12{c0: 0, c1: gfP6{c1: y}}
func refTwistToFp12(q *refG2) (xq, yq *gfP12) {
	xq = newGFp12()
	xq.c0.c1.Set(q.x)
	yq = newGFp12()
	yq.c1.c1.Set(q.y)
	return xq, yq
}

// refLineEval evaluates the (non-vertical) line through points a and b of E(Fp)
// (or the tangent at a, if a == b) at the untwisted point (xq, yq), and
// returns a+b. In the cases where the true line is vertical (a = −b, or one
// of the points is infinity) it returns 1, which is valid under denominator
// elimination because vertical evaluations at ψ(Q) lie in Fp6.
func refLineEval(a, b *refG1, xq, yq *gfP12) (line *gfP12, sum *refG1) {
	if a.inf {
		return newGFp12().SetOne(), new(refG1).Set(b)
	}
	if b.inf {
		return newGFp12().SetOne(), new(refG1).Set(a)
	}

	var lambda *big.Int
	if a.x.Cmp(b.x) == 0 {
		if a.y.Cmp(b.y) != 0 || a.y.Sign() == 0 {
			// a = −b: vertical line, sum is infinity.
			return newGFp12().SetOne(), new(refG1).SetInfinity()
		}
		// Tangent: λ = 3x²/2y.
		lambda = fpMul(fpMul(big.NewInt(3), fpSquare(a.x)), fpInv(fpDouble(a.y)))
	} else {
		lambda = fpMul(fpSub(b.y, a.y), fpInv(fpSub(b.x, a.x)))
	}

	// l(X, Y) = Y − a.y − λ(X − a.x), evaluated at (xq, yq). The constant
	// Fp coefficients fold into the c0.c0.c0 slot of the tower.
	t := newGFp12().Set(xq)
	t.c0.c0.c0 = fpSub(t.c0.c0.c0, a.x)
	lt := refScalarMulFp12(t, lambda)
	line = newGFp12().Set(yq)
	line.c0.c0.c0 = fpSub(line.c0.c0.c0, a.y)
	line.Sub(line, lt)

	x3 := fpSub(fpSub(fpSquare(lambda), a.x), b.x)
	y3 := fpSub(fpMul(lambda, fpSub(a.x, x3)), a.y)
	sum = &refG1{x: x3, y: y3}
	return line, sum
}

// refScalarMulFp12 multiplies every Fp coefficient of a by k.
func refScalarMulFp12(a *gfP12, k *big.Int) *gfP12 {
	out := newGFp12()
	src := []*gfP6{a.c0, a.c1}
	dst := []*gfP6{out.c0, out.c1}
	for i := range src {
		for _, pair := range [][2]*gfP2{
			{src[i].c0, dst[i].c0},
			{src[i].c1, dst[i].c1},
			{src[i].c2, dst[i].c2},
		} {
			pair[1].c0 = fpMul(pair[0].c0, k)
			pair[1].c1 = fpMul(pair[0].c1, k)
		}
	}
	return out
}

// refMiller runs Miller's algorithm with denominator elimination, returning the
// unreduced pairing value f_{r,P}(ψ(Q)) ∈ Fp12 (up to Fp6 factors, which the
// final exponentiation kills).
func refMiller(p *refG1, q *refG2) *gfP12 {
	xq, yq := refTwistToFp12(q)
	f := newGFp12().SetOne()
	t := new(refG1).Set(p)

	for i := Order.BitLen() - 2; i >= 0; i-- {
		// Doubling step: f ← f² · l_{T,T}(Q)
		line, sum := refLineEval(t, t, xq, yq)
		f.Square(f)
		f.Mul(f, line)
		t = sum

		if Order.Bit(i) == 1 {
			// Addition step: f ← f · l_{T,P}(Q)
			line, sum := refLineEval(t, p, xq, yq)
			f.Mul(f, line)
			t = sum
		}
	}
	if !t.inf {
		panic("bn254: Miller loop did not terminate at infinity")
	}
	return f
}

// refFinalExponentiation maps the Miller value into refGT:
// f ↦ f^((p¹²−1)/r) = (conj(f)·f⁻¹)^m.
func refFinalExponentiation(f *gfP12) *gfP12 {
	easy := newGFp12().Invert(f)
	easy.Mul(easy, newGFp12().Conjugate(f))
	return newGFp12().Exp(easy, finalExpM)
}

// refPair computes the reduced Tate pairing e(p, q) ∈ refGT. Pairing with the
// identity in either argument returns the identity of refGT.
func refPair(p *refG1, q *refG2) *refGT {
	if p.IsInfinity() || q.IsInfinity() {
		return refGTOne()
	}
	return &refGT{e: refFinalExponentiation(refMiller(p, q))}
}

// refPairingCheck reports whether ∏ e(p[i], q[i]) == 1. It is used by BLS
// signature verification: e(sig, refG2) == e(H(m), pk) is checked as
// e(sig, −refG2)·e(H(m), pk) == 1. The Miller values are multiplied before a
// single shared final exponentiation.
func refPairingCheck(ps []*refG1, qs []*refG2) bool {
	if len(ps) != len(qs) {
		return false
	}
	acc := newGFp12().SetOne()
	nontrivial := false
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		acc.Mul(acc, refMiller(ps[i], qs[i]))
		nontrivial = true
	}
	if !nontrivial {
		return true
	}
	return refFinalExponentiation(acc).IsOne()
}
