package bn254

import "math/big"

// This file implements the reduced Tate pairing
//
//	Pair(P, Q) = f_{r,P}(ψ(Q))^((p¹²−1)/r)
//
// on the Montgomery limb backend, producing bit-identical values to the
// big.Int reference implementation (ref_pairing_test.go) while running the
// Miller loop inversion-free in Jacobian coordinates. It is a test oracle:
// the production pairing is the optimal ate (ate.go), whose value is
// Pair^κ for a fixed κ, and Pair itself matches the big.Int reference bit
// for bit — so the ate path reaches the reference through two checked
// steps.
//
// The Miller loop iterates over the bits of r = Order with the G1 argument
// P carried as a Jacobian point T. Each doubling/addition step produces a
// LINE evaluated at the untwisted second argument ψ(Q) = (x_Q·w², y_Q·w³):
//
//	ℓ = cst + xm·x_Q·w² + ym·y_Q·w³
//
// with cst, xm, ym ∈ Fp depending only on P's ladder — not on Q. Scaling a
// line by any Fp factor is invisible to the reduced pairing (Fp ⊂ Fp6 and
// (p⁶−1) divides the final exponent — the same fact that licenses
// denominator elimination in the reference), so the Jacobian formulas
// clear denominators instead of inverting:
//
//	doubling:  cst = 3X³ − 2Y²,  xm = −3X²Z²,  ym = 2YZ³
//	addition:  cst = R·xₚ − HZ·yₚ,  xm = −R,  ym = HZ
//	           (H = xₚZ² − X, R = yₚZ³ − Y)
//
// The final exponentiation splits (p¹²−1)/r as
// (p⁶−1)·(p²+1)·(p⁴−p²+1)/r: the first factor is conj(f)·f⁻¹, the second
// one Frobenius-p² and a multiplication (constants derived at startup, not
// hardcoded), leaving a ~761-bit windowed exponentiation — half the work
// of the reference's generic (p⁶+1)/r exponent, for the identical value.

// finalExpH is (p⁴ − p² + 1)/Order, the generic tail of the final
// exponentiation.
var finalExpH = deriveFinalExpH()

func deriveFinalExpH() *big.Int {
	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	h := new(big.Int).Sub(p4, p2)
	h.Add(h, big.NewInt(1))
	rem := new(big.Int)
	h, rem = new(big.Int).QuoRem(h, Order, rem)
	if rem.Sign() != 0 {
		panic("bn254: Order does not divide p⁴ − p² + 1")
	}
	return h
}

// lineCoeff is one Miller-loop line: ℓ = cst + xm·x_Q·w² + ym·y_Q·w³.
// vertical marks degenerate steps whose line is a vertical (an Fp6 value),
// dropped under denominator elimination.
type lineCoeff struct {
	cst, xm, ym fe
	vertical    bool
}

// g1Lines runs the Tate Miller ladder on p and returns the line
// coefficients for every doubling/addition step, in evaluation order.
func g1Lines(p *G1) []lineCoeff {
	coeffs := make([]lineCoeff, 0, 2*Order.BitLen())
	var t g1Jac
	t.fromAffine(p)
	for i := Order.BitLen() - 2; i >= 0; i-- {
		coeffs = doubleStep(coeffs, &t)
		if Order.Bit(i) == 1 {
			coeffs = addStep(coeffs, &t, p)
		}
	}
	if !t.isInfinity() {
		panic("bn254: Miller loop did not terminate at infinity")
	}
	return coeffs
}

// doubleStep appends the tangent line at T and doubles T.
func doubleStep(coeffs []lineCoeff, t *g1Jac) []lineCoeff {
	if t.isInfinity() {
		return append(coeffs, lineCoeff{vertical: true})
	}
	var c lineCoeff
	var A, B, ZZ, tmp fe
	feSquare(&A, &t.x)  // X²
	feSquare(&B, &t.y)  // Y²
	feSquare(&ZZ, &t.z) // Z²
	// cst = 3X·A − 2B = 3X³ − 2Y²
	feMul(&c.cst, &t.x, &A)
	feMulBy3(&c.cst, &c.cst)
	feDouble(&tmp, &B)
	feSub(&c.cst, &c.cst, &tmp)
	// xm = −3A·ZZ = −3X²Z²
	feMulBy3(&c.xm, &A)
	feMul(&c.xm, &c.xm, &ZZ)
	feNeg(&c.xm, &c.xm)
	// ym = 2YZ·ZZ = 2YZ³
	feMul(&c.ym, &t.y, &t.z)
	feDouble(&c.ym, &c.ym)
	feMul(&c.ym, &c.ym, &ZZ)
	t.double(t)
	return append(coeffs, c)
}

// addStep appends the chord line through T and p, and sets T = T + p.
func addStep(coeffs []lineCoeff, t *g1Jac, p *G1) []lineCoeff {
	if t.isInfinity() {
		t.fromAffine(p)
		return append(coeffs, lineCoeff{vertical: true})
	}
	var zz, u2, s2, h, r fe
	feSquare(&zz, &t.z)
	feMul(&u2, &p.x, &zz)
	feMul(&s2, &p.y, &t.z)
	feMul(&s2, &s2, &zz)
	feSub(&h, &u2, &t.x) // H = xₚZ² − X
	feSub(&r, &s2, &t.y) // R = yₚZ³ − Y
	if h.IsZero() {
		if r.IsZero() {
			// T == p: the chord degenerates to the tangent
			// (unreachable for the prime-order ladder, handled for
			// parity with the reference).
			return doubleStep(coeffs, t)
		}
		// T == −p: vertical line, T + p = ∞.
		t.setInfinity()
		return append(coeffs, lineCoeff{vertical: true})
	}
	var c lineCoeff
	var hz fe
	feMul(&hz, &h, &t.z)
	// cst = R·xₚ − HZ·yₚ
	feMul(&c.cst, &r, &p.x)
	var tmp fe
	feMul(&tmp, &hz, &p.y)
	feSub(&c.cst, &c.cst, &tmp)
	feNeg(&c.xm, &r) // xm = −R
	c.ym = hz        // ym = HZ
	// Mixed addition reusing H and R.
	var h2, h3, v fe
	feSquare(&h2, &h)
	feMul(&h3, &h, &h2)
	feMul(&v, &t.x, &h2)
	var x3, y3, z3 fe
	feSquare(&x3, &r)
	feSub(&x3, &x3, &h3)
	feDouble(&tmp, &v)
	feSub(&x3, &x3, &tmp)
	feSub(&tmp, &v, &x3)
	feMul(&y3, &r, &tmp)
	feMul(&tmp, &t.y, &h3)
	feSub(&y3, &y3, &tmp)
	feMul(&z3, &t.z, &h)
	t.x, t.y, t.z = x3, y3, z3
	return append(coeffs, c)
}

// MulLine sets e = a·ℓ for the sparse line value
//
//	ℓ = cst + b·w² + c·w³   (cst ∈ Fp, b, c ∈ Fp2)
//
// produced by Miller-loop line evaluations: in tower coordinates ℓ has
// cst at c0.c0.c0, b at c0.c1, and c at c1.c1. Karatsuba over the Fp6
// halves with the sparse fe6 products costs ~39 base-field
// multiplications instead of 54 for a generic Mul.
func (e *fe12) MulLine(a *fe12, cst *fe, b, c *fe2) *fe12 {
	// L0 = cst + b·v, L1 = c·v.
	var v0, v1, cross, sa fe6
	v0.mulBy01(&a.c0, cst, b)
	v1.mulBy1(&a.c1, c)
	var bc fe2
	bc.Add(b, c)
	sa.Add(&a.c0, &a.c1)
	cross.mulBy01(&sa, cst, &bc)
	cross.Sub(&cross, &v0)
	e.c1.Sub(&cross, &v1)
	var vv1 fe6
	vv1.MulV(&v1)
	e.c0.Add(&v0, &vv1)
	return e
}

// mulBy01 sets e = a·(b0 + b1·v) where b0 = cst ∈ Fp (embedded in Fp2) and
// b1 ∈ Fp2 — the sparse shape of Miller-loop lines:
//
//	e0 = cst·a0 + ξ·(b1·a2)
//	e1 = cst·a1 + b1·a0
//	e2 = cst·a2 + b1·a1
func (e *fe6) mulBy01(a *fe6, cst *fe, b1 *fe2) *fe6 {
	var s0, s1, s2, t0, t1, t2 fe2
	s0.MulFe(&a.c0, cst)
	s1.MulFe(&a.c1, cst)
	s2.MulFe(&a.c2, cst)
	t0.Mul(b1, &a.c2)
	t0.MulXi(&t0)
	t1.Mul(b1, &a.c0)
	t2.Mul(b1, &a.c1)
	e.c0.Add(&s0, &t0)
	e.c1.Add(&s1, &t1)
	e.c2.Add(&s2, &t2)
	return e
}

// mulBy1 sets e = a·(b1·v) for b1 ∈ Fp2:
//
//	e0 = ξ·(b1·a2), e1 = b1·a0, e2 = b1·a1
func (e *fe6) mulBy1(a *fe6, b1 *fe2) *fe6 {
	var t0, t1, t2 fe2
	t0.Mul(b1, &a.c2)
	t0.MulXi(&t0)
	t1.Mul(b1, &a.c0)
	t2.Mul(b1, &a.c1)
	e.c0, e.c1, e.c2 = t0, t1, t2
	return e
}

// evalLines replays a line-coefficient ladder against Q = (xq, yq),
// returning the unreduced Miller value f_{r,P}(ψ(Q)) (up to Fp6 factors,
// which the final exponentiation kills).
func evalLines(coeffs []lineCoeff, xq, yq *fe2) *fe12 {
	f := new(fe12)
	evalLinesInto(f, coeffs, xq, yq)
	return f
}

// evalLinesInto is evalLines writing into caller-owned storage, so the
// batched scan pipeline can run Miller loops without allocating.
func evalLinesInto(f *fe12, coeffs []lineCoeff, xq, yq *fe2) {
	f.SetOne()
	k := 0
	apply := func() {
		c := &coeffs[k]
		k++
		if c.vertical {
			return
		}
		var b, cc fe2
		b.MulFe(xq, &c.xm)
		cc.MulFe(yq, &c.ym)
		f.MulLine(f, &c.cst, &b, &cc)
	}
	for i := Order.BitLen() - 2; i >= 0; i-- {
		f.Square(f)
		apply()
		if Order.Bit(i) == 1 {
			apply()
		}
	}
}

// finalExp maps a Miller value into GT:
// f ↦ f^((p¹²−1)/r) = ((conj(f)·f⁻¹)^(p²+1))^((p⁴−p²+1)/r).
func finalExp(f *fe12) *fe12 {
	var inv, g fe12
	inv.Invert(f)
	g.Conjugate(f)
	g.Mul(&g, &inv) // f^(p⁶−1)
	var t fe12
	t.FrobeniusP2(&g)
	t.Mul(&t, &g) // ^(p²+1); now in the cyclotomic subgroup
	out := new(fe12)
	out.CycloExpWindow(&t, finalExpH)
	return out
}

// Pair computes the reduced Tate pairing e(p, q) ∈ GT. Pairing with the
// identity in either argument returns the identity of GT. It keeps the
// generic windowed final exponentiation as the differential oracle for
// the decomposed hard part used by the batch pipelines and the pairing
// checks.
func Pair(p *G1, q *G2) *GT {
	if p.IsInfinity() || q.IsInfinity() {
		return GTOne()
	}
	return &GT{e: *finalExp(evalLines(g1Lines(p), &q.x, &q.y))}
}

// PairingCheck reports whether ∏ e(p[i], q[i]) == 1 on the Tate loop: the
// Miller values are multiplied before a single shared final exponentiation,
// taken through the decomposed hard part (the scalar Pair retains the
// windowed path as its oracle). It has no production caller — BLS
// verification runs on AtePairingCheck — and stays as the differential
// oracle that check is tested against.
func PairingCheck(ps []*G1, qs []*G2) bool {
	if len(ps) != len(qs) {
		return false
	}
	var acc fe12
	acc.SetOne()
	nontrivial := false
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		acc.Mul(&acc, evalLines(g1Lines(ps[i]), &qs[i].x, &qs[i].y))
		nontrivial = true
	}
	if !nontrivial {
		return true
	}
	return finalExpDecomp(&acc).IsOne()
}

// CycloExpWindow sets e = a^k with a fixed 4-bit window (14 precomputed
// multiplications for ~3/4 of the per-bit multiplies) and cyclotomic
// squarings; the base (and so every power) must lie in the cyclotomic
// subgroup. It is the final exponentiation's ~760-bit hard part.
func (e *fe12) CycloExpWindow(a *fe12, k *big.Int) *fe12 {
	if k.Sign() < 0 {
		panic("bn254: negative exponent in Fp12")
	}
	var table [16]fe12
	table[0].SetOne()
	table[1] = *a
	for i := 2; i < 16; i++ {
		table[i].Mul(&table[i-1], a)
	}
	var acc fe12
	acc.SetOne()
	bits := k.BitLen()
	start := (bits - 1) / 4 * 4
	for i := start; i >= 0; i -= 4 {
		if i != start {
			acc.CyclotomicSquare(&acc)
			acc.CyclotomicSquare(&acc)
			acc.CyclotomicSquare(&acc)
			acc.CyclotomicSquare(&acc)
		}
		w := (k.Bit(i+3) << 3) | (k.Bit(i+2) << 2) | (k.Bit(i+1) << 1) | k.Bit(i)
		if w != 0 {
			acc.Mul(&acc, &table[w])
		}
	}
	return e.Set(&acc)
}
