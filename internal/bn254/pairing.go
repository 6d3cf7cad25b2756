package bn254

import "math/big"

// This file implements the reduced Tate pairing
//
//	Pair(P, Q) = f_{r,P}(ψ(Q))^((p¹²−1)/r)
//
// on the Montgomery limb backend, producing bit-identical values to the
// big.Int reference implementation (ref_pairing.go) while running the
// Miller loop inversion-free in Jacobian coordinates.
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
// Because the coefficient triples depend only on P, they double as a
// fixed-argument precomputation: PrecomputeG1 runs the ladder once and
// replays it against many Q's (the mailbox-scan decrypt pattern).
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

// finalExpDecomp is finalExp with the hard part evaluated through the
// Devegili–Scott Frobenius decomposition (finalExpHardDecomp) instead of
// the generic windowed exponentiation. The two agree on every input —
// finalExp stays as the slow differential oracle, and a pin test enforces
// both the equality and the speedup.
func finalExpDecomp(f *fe12) *fe12 {
	var inv, g fe12
	inv.Invert(f)
	g.Conjugate(f)
	g.Mul(&g, &inv) // f^(p⁶−1)
	var t fe12
	t.FrobeniusP2(&g)
	t.Mul(&t, &g) // ^(p²+1); now in the cyclotomic subgroup
	out := new(fe12)
	finalExpHardDecomp(out, &t)
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

// PrecomputedG1 holds the Miller-loop line coefficients of a fixed G1
// point. In the Tate pairing the first argument carries the ladder, so a
// fixed P — an identity private key trial-decrypting a whole mailbox —
// pays for its point arithmetic once and replays ~380 coefficient triples
// against every Q.
type PrecomputedG1 struct {
	coeffs []lineCoeff
	inf    bool
}

// PrecomputeG1 runs the Miller ladder for p once, for repeated pairing
// against many G2 points.
func PrecomputeG1(p *G1) *PrecomputedG1 {
	if p.IsInfinity() {
		return &PrecomputedG1{inf: true}
	}
	return &PrecomputedG1{coeffs: g1Lines(p)}
}

// Erase zeroes the line coefficients in place. They fully determine the
// pairing of the fixed point (Pair works without the point itself), so
// key-erasure call sites must scrub them like the key. An erased
// precomputation behaves like the precomputation of infinity (Pair
// returns the identity), mirroring an erased key point.
func (pc *PrecomputedG1) Erase() {
	for i := range pc.coeffs {
		pc.coeffs[i] = lineCoeff{}
	}
	pc.coeffs = nil
	pc.inf = true
}

// Pair computes e(p, q) for the precomputed p, identical in value to
// Pair(p, q).
func (pc *PrecomputedG1) Pair(q *G2) *GT {
	if pc.inf || q.IsInfinity() {
		return GTOne()
	}
	return &GT{e: *finalExp(evalLines(pc.coeffs, &q.x, &q.y))}
}

// PrecomputedG2 caches the fixed G2 argument of repeated pairings — the
// aggregated master public key that Encrypt and cover-traffic generation
// pair against thousands of times per round. The Tate ladder runs on the
// G1 side, so the cacheable work for a fixed Q is its untwisted evaluation
// coordinates; the API exists so fixed-key call sites express the intent
// once and stay in the limb domain.
type PrecomputedG2 struct {
	xq, yq fe2
	inf    bool
}

// PrecomputeG2 prepares q for repeated pairing.
func PrecomputeG2(q *G2) *PrecomputedG2 {
	if q.IsInfinity() {
		return &PrecomputedG2{inf: true}
	}
	return &PrecomputedG2{xq: q.x, yq: q.y}
}

// Pair computes e(p, q) for the precomputed q, identical in value to
// Pair(p, q).
func (pc *PrecomputedG2) Pair(p *G1) *GT {
	if pc.inf || p.IsInfinity() {
		return GTOne()
	}
	return &GT{e: *finalExp(evalLines(g1Lines(p), &pc.xq, &pc.yq))}
}
