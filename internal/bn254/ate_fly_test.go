package bn254

// The on-the-fly optimal-ate Miller loop: lines computed as the ladder
// walks and multiplied straight into f, with no table. Production pairs
// only by replaying a monic line table (ateEvalLinesInto); this loop is the
// independent oracle the replay is pinned against (TestAtePrecomputeReplay).

// ateApplyLine multiplies the sparse line value ℓ(P) into f for
// P = (xp, yp).
func ateApplyLine(f *fe12, c *ateLineCoeff, xp, yp *fe) {
	if c.vertical {
		return
	}
	var b, cc fe2
	b.MulFe(&c.lb, xp)
	cc.MulFe(&c.lc, yp)
	f.MulAteLine(f, &cc, &b, &c.la)
}

// ateMillerInto computes the unreduced optimal-ate Miller value
// f_{λ,Q}(P)·(correction lines) into f, with lines computed on the fly —
// the oracle form of atePairValue.
func ateMillerInto(f *fe12, xp, yp *fe, q *G2) {
	var t g2Jac
	t.fromAffine(q)
	var nq G2
	nq.Neg(q)
	f.SetOne()
	var c ateLineCoeff
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		f.Square(f)
		ateDoubleStep(&c, &t)
		ateApplyLine(f, &c, xp, yp)
		switch ateLoopNAF[i] {
		case 1:
			ateAddStep(&c, &t, q)
			ateApplyLine(f, &c, xp, yp)
		case -1:
			ateAddStep(&c, &t, &nq)
			ateApplyLine(f, &c, xp, yp)
		}
	}
	// Correction steps: add ψ(Q), then −ψ²(Q). No squaring between them.
	var q1, nq2 G2
	g2Psi(&q1, q)
	g2Psi(&nq2, &q1)
	nq2.y.Neg(&nq2.y)
	ateAddStep(&c, &t, &q1)
	ateApplyLine(f, &c, xp, yp)
	ateAddStep(&c, &t, &nq2)
	ateApplyLine(f, &c, xp, yp)
}

// MulAteLine sets e = a·ℓ for the sparse optimal-ate line value
//
//	ℓ = c + b·w + la·w³   (c, b, la ∈ Fp2)
//
// produced by the ate Miller loop, whose ladder runs on the TWIST side
// (coefficients in Fp2, evaluation point in Fp — the mirror image of
// MulLine). In tower coordinates c sits at c0.c0, b at c1.c0, and la at
// c1.c1, so L0 = c and L1 = b + la·v. Karatsuba over the Fp6 halves with
// the sparse products costs 13 Fp2 multiplications (3 + 5 + 5) instead of
// 18 for a generic Mul.
func (e *fe12) MulAteLine(a *fe12, c, b, la *fe2) *fe12 {
	var v0, v1, cross, sa fe6
	v0.mulByFe2(&a.c0, c)
	v1.mulBy01fe2(&a.c1, b, la)
	var cb fe2
	cb.Add(c, b)
	sa.Add(&a.c0, &a.c1)
	cross.mulBy01fe2(&sa, &cb, la)
	cross.Sub(&cross, &v0)
	e.c1.Sub(&cross, &v1)
	var vv1 fe6
	vv1.MulV(&v1)
	e.c0.Add(&v0, &vv1)
	return e
}

// mulByFe2 sets e = a·b for a scalar b ∈ Fp2 (three Fp2 multiplications) —
// the w-even half of an ate line's sparse product.
func (e *fe6) mulByFe2(a *fe6, b *fe2) *fe6 {
	e.c0.Mul(&a.c0, b)
	e.c1.Mul(&a.c1, b)
	e.c2.Mul(&a.c2, b)
	return e
}
