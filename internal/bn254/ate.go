package bn254

import (
	"math/big"
	"sync"
)

// This file implements the OPTIMAL ATE pairing on BN254:
//
//	AtePair(P, Q) = (f_{λ,Q}(P) · ℓ_{[λ]Q,ψ(Q)}(P) · ℓ_{[λ]Q+ψ(Q),−ψ²(Q)}(P))^((p¹²−1)/r)
//
// with λ = 6u+2 (65 bits, positive for this curve's u). The Miller ladder
// runs over the G2 argument ON THE TWIST in Jacobian coordinates — ~65
// iterations instead of the Tate loop's ~254 — followed by two ψ-Frobenius
// correction steps (the Vercauteren optimal-ate construction; the vector
// (6u+2, 1, −1, 1) satisfies 6u+2 + p − p² + p³ ≡ 0 mod r, verified at
// startup).
//
// Lines live on the twist: untwisting T = (X, Y, Z) to (X·w², Y·w³, Z) and
// substituting into the cleared Tate line polynomials puts every coefficient
// on the w-powers {w⁰, w¹, w³} after dividing by a w³ (doubling) or w²
// (addition) factor — legal because w² and w³ have Fp4/Fp6 norms killed by
// the final exponentiation. The resulting sparse value is
//
//	ℓ = lc·y_P + lb·x_P·w + la·w³,   la, lb, lc ∈ Fp2
//
//	doubling:  la = 3X³ − 2Y²,  lb = −3X²Z²,  lc = 2YZ³
//	addition:  la = R·x_Q − HZ·y_Q,  lb = −R,  lc = HZ
//	           (H = x_Q·Z² − X, R = y_Q·Z³ − Y, over Fp2 on the twist)
//
// — the same shapes as the Tate steps with Fp2 coefficients, absorbed by
// fe12.MulAteLine.
//
// The ate value differs from the Tate value by a FIXED exponent: both are
// reduced pairings on the same groups, so e_ate = e_tate^κ for a constant κ
// depending only on the curve. The Tate path (pairing.go/pairbatch.go) is
// kept untouched as a differential oracle: bilinearity of both loops against
// known scalars pins the relation (ateOracleCheck at first use, plus the
// differential tests).
type ateLineCoeff struct {
	la, lb, lc fe2
	vertical   bool
}

// ateLoop is λ = 6u+2, the optimal-ate Miller loop length, and ateLoopNAF
// its signed non-adjacent form: negating a twist point is one Fp2 negation,
// so the signed ladder trades λ's binary Hamming weight 37 for NAF weight
// 22 — fifteen fewer addition steps (mixed add + line + sparse Fp12
// multiply each) per Miller loop.
var (
	ateLoop    = deriveAteLoop()
	ateLoopNAF = deriveNAF(ateLoop)
)

func deriveAteLoop() *big.Int {
	lam := new(big.Int).Mul(u, big.NewInt(6))
	lam.Add(lam, big.NewInt(2))
	if lam.Sign() <= 0 {
		panic("bn254: 6u+2 is not positive")
	}
	// The optimal-ate vector (λ, 1, −1, 1): λ + p − p² + p³ ≡ 0 (mod r).
	p2 := new(big.Int).Mul(P, P)
	p3 := new(big.Int).Mul(p2, P)
	acc := new(big.Int).Add(lam, P)
	acc.Sub(acc, p2)
	acc.Add(acc, p3)
	if new(big.Int).Mod(acc, Order).Sign() != 0 {
		panic("bn254: optimal-ate vector identity failed")
	}
	return lam
}

// g2Psi applies the twist endomorphism ψ(x, y) = (γ₁²·conj(x), γ₁³·conj(y))
// to an affine twist point (see g2PsiX/g2PsiY in pairbatch.go).
func g2Psi(out, in *G2) {
	if in.inf {
		out.SetInfinity()
		return
	}
	out.x.Conjugate(&in.x)
	out.x.Mul(&out.x, &g2PsiX)
	out.y.Conjugate(&in.y)
	out.y.Mul(&out.y, &g2PsiY)
	out.inf = false
}

// ateDoubleStep fills c with the tangent line at T and doubles T. Line and
// doubling are fused: X², Y², 3X² and 2YZ feed both, saving two Fp2
// squarings and a multiplication per iteration over a line-then-double
// sequence (the doubling itself is the same dbl-2009-l chain as
// g2Jac.double — a differential test pins the ladder).
func ateDoubleStep(c *ateLineCoeff, t *g2Jac) {
	if t.isInfinity() {
		*c = ateLineCoeff{vertical: true}
		return
	}
	c.vertical = false
	var A, B, ZZ, yz2, E, tmp fe2
	A.Square(&t.x)  // X²
	B.Square(&t.y)  // Y²
	ZZ.Square(&t.z) // Z²
	yz2.Mul(&t.y, &t.z)
	yz2.Double(&yz2) // 2YZ
	// la = 3X·A − 2B = 3X³ − 2Y²
	c.la.Mul(&t.x, &A)
	tmp.Double(&c.la)
	c.la.Add(&c.la, &tmp)
	tmp.Double(&B)
	c.la.Sub(&c.la, &tmp)
	// E = 3A; lb = −E·ZZ = −3X²Z²
	E.Double(&A)
	E.Add(&E, &A)
	c.lb.Mul(&E, &ZZ)
	c.lb.Neg(&c.lb)
	// lc = 2YZ·ZZ = 2YZ³
	c.lc.Mul(&yz2, &ZZ)
	// Doubling reusing A, B, E, 2YZ:
	// C = B², D = 2((X+B)² − A − C), F = E²
	// X₃ = F − 2D, Y₃ = E(D − X₃) − 8C, Z₃ = 2YZ
	var C, D, F fe2
	C.Square(&B)
	D.Add(&t.x, &B)
	D.Square(&D)
	D.Sub(&D, &A)
	D.Sub(&D, &C)
	D.Double(&D)
	F.Square(&E)
	var x3, y3 fe2
	x3.Sub(&F, &D)
	x3.Sub(&x3, &D)
	tmp.Sub(&D, &x3)
	y3.Mul(&E, &tmp)
	C.Double(&C)
	C.Double(&C)
	C.Double(&C)
	y3.Sub(&y3, &C)
	t.x, t.y, t.z = x3, y3, yz2
}

// ateAddStep fills c with the chord line through T and q, and sets
// T = T + q (mixed addition on the twist).
func ateAddStep(c *ateLineCoeff, t *g2Jac, q *G2) {
	if t.isInfinity() {
		t.fromAffine(q)
		*c = ateLineCoeff{vertical: true}
		return
	}
	var zz, u2, s2, h, r fe2
	zz.Square(&t.z)
	u2.Mul(&q.x, &zz)
	s2.Mul(&q.y, &t.z)
	s2.Mul(&s2, &zz)
	h.Sub(&u2, &t.x) // H = x_Q·Z² − X
	r.Sub(&s2, &t.y) // R = y_Q·Z³ − Y
	if h.IsZero() {
		if r.IsZero() {
			// T == q: chord degenerates to the tangent. Unreachable for
			// order-r inputs on this ladder; kept for defensive parity
			// with the Tate addStep.
			ateDoubleStep(c, t)
			return
		}
		// T == −q: vertical line, T + q = ∞.
		t.setInfinity()
		*c = ateLineCoeff{vertical: true}
		return
	}
	c.vertical = false
	var hz, tmp fe2
	hz.Mul(&h, &t.z)
	// la = R·x_Q − HZ·y_Q
	c.la.Mul(&r, &q.x)
	tmp.Mul(&hz, &q.y)
	c.la.Sub(&c.la, &tmp)
	c.lb.Neg(&r) // lb = −R
	c.lc = hz    // lc = HZ
	// Mixed addition reusing H and R.
	var h2, h3, v fe2
	h2.Square(&h)
	h3.Mul(&h, &h2)
	v.Mul(&t.x, &h2)
	var x3, y3, z3 fe2
	x3.Square(&r)
	x3.Sub(&x3, &h3)
	tmp.Double(&v)
	x3.Sub(&x3, &tmp)
	tmp.Sub(&v, &x3)
	y3.Mul(&r, &tmp)
	tmp.Mul(&t.y, &h3)
	y3.Sub(&y3, &tmp)
	z3.Mul(&t.z, &h)
	t.x, t.y, t.z = x3, y3, z3
}

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
// zero allocations, for the batched scan where Q varies per element.
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

// g2AteLines runs the optimal-ate ladder on a fixed Q once and returns the
// line coefficients in evaluation order (including the two correction
// steps), for replay against many G1 points — the encrypt-side pattern,
// where the aggregated master public key is the fixed argument.
func g2AteLines(q *G2) []ateLineCoeff {
	coeffs := make([]ateLineCoeff, 0, len(ateLoopNAF)+len(ateLoopNAF)/2+2)
	var t g2Jac
	t.fromAffine(q)
	var nq G2
	nq.Neg(q)
	var c ateLineCoeff
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		ateDoubleStep(&c, &t)
		coeffs = append(coeffs, c)
		switch ateLoopNAF[i] {
		case 1:
			ateAddStep(&c, &t, q)
			coeffs = append(coeffs, c)
		case -1:
			ateAddStep(&c, &t, &nq)
			coeffs = append(coeffs, c)
		}
	}
	var q1, nq2 G2
	g2Psi(&q1, q)
	g2Psi(&nq2, &q1)
	nq2.y.Neg(&nq2.y)
	ateAddStep(&c, &t, &q1)
	coeffs = append(coeffs, c)
	ateAddStep(&c, &t, &nq2)
	coeffs = append(coeffs, c)
	return coeffs
}

// ateFixedPair is one factor of a fixed-G2 pairing product: the line table
// of Q and the evaluation coordinates of P.
type ateFixedPair struct {
	coeffs []ateLineCoeff
	xp, yp *fe
}

// ateEvalLinesInto replays fixed-Q ate ladders against their G1 points,
// leaving the PRODUCT of the unreduced Miller values in f. Every table has
// the same layout (one triple per doubling, one per nonzero NAF digit, two
// corrections — the shape depends only on λ), so the ladders advance in
// lockstep and the Fp12 squaring of each iteration is paid once for the
// whole product: f² · ∏ℓᵢ is the square-and-multiply step of ∏fᵢ.
func ateEvalLinesInto(f *fe12, pairs []ateFixedPair) {
	f.SetOne()
	k := 0
	apply := func() {
		for i := range pairs {
			ateApplyLine(f, &pairs[i].coeffs[k], pairs[i].xp, pairs[i].yp)
		}
		k++
	}
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		f.Square(f)
		apply()
		if ateLoopNAF[i] != 0 {
			apply()
		}
	}
	// Correction lines.
	apply()
	apply()
}

// atePairValue is AtePair without the init-time oracle check (the check
// itself uses it).
func atePairValue(p *G1, q *G2) *GT {
	if p.IsInfinity() || q.IsInfinity() {
		return GTOne()
	}
	var f fe12
	ateMillerInto(&f, &p.x, &p.y, q)
	return &GT{e: *finalExp(&f)}
}

// ateOracleOnce runs a one-time differential smoke against the retained
// Tate oracle on first use of any ate entry point: both reduced pairings
// must be nontrivial and bilinear on known scalars (AtePair(2P, 3Q) =
// AtePair(P, Q)⁶ and the same for Pair). Every production v2 batch is
// additionally cross-checked element-wise by the differential tests; this
// startup check catches a miscompiled or misderived ladder before any
// derived key leaves the package.
var ateOracleOnce sync.Once

func ateOracleCheck() {
	ateOracleOnce.Do(func() {
		p, q := G1Generator(), G2Generator()
		var p2 G1
		var q3 G2
		p2.ScalarMult(p, big.NewInt(2))
		q3.ScalarMult(q, big.NewInt(3))
		six := big.NewInt(6)
		gA := atePairValue(p, q)
		if gA.IsOne() {
			panic("bn254: ate pairing is degenerate on the generators")
		}
		if !atePairValue(&p2, &q3).Equal(new(GT).Exp(gA, six)) {
			panic("bn254: ate pairing failed the bilinearity smoke test")
		}
		gT := Pair(p, q)
		if !Pair(&p2, &q3).Equal(new(GT).Exp(gT, six)) {
			panic("bn254: tate oracle failed the bilinearity smoke test")
		}
	})
}

// AtePair computes the reduced optimal-ate pairing a(p, q) ∈ GT. It is a
// bilinear non-degenerate pairing on the same groups as Pair, related to it
// by a fixed exponent: AtePair(p, q) = Pair(p, q)^κ for a curve constant κ.
// Values (and therefore any keys derived from them) are NOT interchangeable
// with Pair's — call sites pick one per negotiated PairingVersion.
func AtePair(p *G1, q *G2) *GT {
	ateOracleCheck()
	return atePairValue(p, q)
}

// g2JacPsi applies ψ to a Jacobian twist point: conjugation is a field
// automorphism, so it distributes over the Jacobian equivalence class:
// (X, Y, Z) ↦ (γ₁²·conj(X), γ₁³·conj(Y), conj(Z)).
func g2JacPsi(out, in *g2Jac) {
	out.x.Conjugate(&in.x)
	out.x.Mul(&out.x, &g2PsiX)
	out.y.Conjugate(&in.y)
	out.y.Mul(&out.y, &g2PsiY)
	out.z.Conjugate(&in.z)
}

// add sets j = a + b (full Jacobian addition with all degenerate branches).
func (j *g2Jac) add(a, b *g2Jac) {
	if a.isInfinity() {
		*j = *b
		return
	}
	if b.isInfinity() {
		*j = *a
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r fe2
	z1z1.Square(&a.z)
	z2z2.Square(&b.z)
	u1.Mul(&a.x, &z2z2)
	u2.Mul(&b.x, &z1z1)
	s1.Mul(&a.y, &b.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &u1)
	r.Sub(&s2, &s1)
	if h.IsZero() {
		if r.IsZero() {
			j.double(a)
			return
		}
		j.setInfinity()
		return
	}
	var h2, h3, v fe2
	h2.Square(&h)
	h3.Mul(&h, &h2)
	v.Mul(&u1, &h2)
	var x3, y3, z3, t fe2
	x3.Square(&r)
	x3.Sub(&x3, &h3)
	t.Double(&v)
	x3.Sub(&x3, &t)
	t.Sub(&v, &x3)
	y3.Mul(&r, &t)
	t.Mul(&s1, &h3)
	y3.Sub(&y3, &t)
	z3.Mul(&a.z, &b.z)
	z3.Mul(&z3, &h)
	j.x, j.y, j.z = x3, y3, z3
}

// gsCheckVector verifies at startup that the Galbraith–Scott short-vector
// subgroup criterion used by isInSubgroupGS vanishes on the subgroup:
// with s = 6u² the ψ-eigenvalue, (u+1) + u·s + u·s² − 2u·s³ ≡ 0 (mod r).
var _ = deriveGSCheckVector()

func deriveGSCheckVector() struct{} {
	s := new(big.Int).Mod(sixU2, Order)
	s2 := new(big.Int).Mod(new(big.Int).Mul(s, s), Order)
	s3 := new(big.Int).Mod(new(big.Int).Mul(s2, s), Order)
	acc := new(big.Int).Add(u, big.NewInt(1))
	acc.Add(acc, new(big.Int).Mul(u, s))
	acc.Add(acc, new(big.Int).Mul(u, s2))
	acc.Sub(acc, new(big.Int).Mul(new(big.Int).Mul(u, big.NewInt(2)), s3))
	if new(big.Int).Mod(acc, Order).Sign() != 0 {
		panic("bn254: Galbraith–Scott subgroup-check vector identity failed")
	}
	return struct{}{}
}

// isInSubgroupGS reports subgroup membership via the Galbraith–Scott short
// vector (El Housni–Guillevic–Piellard, eprint 2022/348; the form adopted
// by gnark-crypto for BN254):
//
//	[u+1]Q + ψ([u]Q) + ψ²([u]Q) − ψ³([2u]Q) == ∞
//
// One 63-bit ladder plus three ψ maps and four Jacobian additions — about
// half the cost of the 127-bit ψ-eigenvalue ladder (isInSubgroupPsi), which
// stays as the v1 path and the differential oracle for this check.
func (p *G2) isInSubgroupGS() bool {
	if p.inf {
		return true
	}
	// uq = [u]Q, walking the signed recoding of u (negating an affine
	// point is one Fp2 negation, NAF weight 24 vs binary weight 28).
	var np G2
	np.Neg(p)
	var uq g2Jac
	uq.fromAffine(p)
	for i := len(uNAF) - 2; i >= 0; i-- {
		uq.double(&uq)
		switch uNAF[i] {
		case 1:
			uq.addMixed(&uq, p)
		case -1:
			uq.addMixed(&uq, &np)
		}
	}
	// acc = [u+1]Q + ψ([u]Q) + ψ²([u]Q) − ψ³([2u]Q).
	var acc, t g2Jac
	acc.addMixed(&uq, p) // [u+1]Q
	g2JacPsi(&t, &uq)    // ψ([u]Q)
	acc.add(&acc, &t)
	g2JacPsi(&t, &t) // ψ²([u]Q)
	acc.add(&acc, &t)
	var u2q g2Jac
	u2q.double(&uq)    // [2u]Q
	g2JacPsi(&t, &u2q) // ψ³([2u]Q)
	g2JacPsi(&t, &t)
	g2JacPsi(&t, &t)
	t.y.Neg(&t.y)
	acc.add(&acc, &t)
	return acc.isInfinity()
}

// AtePrecomputedG1 is the fixed-G1 handle for the v2 mailbox scan. The ate
// ladder runs over the VARYING G2 argument, so — unlike Tate's
// PrecomputedG1 — there are no lines to replay for a fixed P: the whole win
// is the ~65-iteration loop (vs ~254) plus the short subgroup check. The
// cacheable state is just P's evaluation coordinates; the type exists so
// key call sites (identity private keys) keep the precompute-once,
// erase-once discipline of the v1 path.
type AtePrecomputedG1 struct {
	xp, yp fe
	inf    bool
}

// AtePrecomputeG1 prepares p for repeated v2 pairing.
func AtePrecomputeG1(p *G1) *AtePrecomputedG1 {
	if p.IsInfinity() {
		return &AtePrecomputedG1{inf: true}
	}
	ateOracleCheck()
	return &AtePrecomputedG1{xp: p.x, yp: p.y}
}

// Erase scrubs the cached coordinates. They determine the fixed point, so
// key-erasure call sites must scrub them like the key itself. An erased
// precomputation pairs to the identity, like the precomputation of
// infinity.
func (pc *AtePrecomputedG1) Erase() {
	pc.xp = fe{}
	pc.yp = fe{}
	pc.inf = true
}

// Pair computes AtePair(p, q) for the precomputed p.
func (pc *AtePrecomputedG1) Pair(q *G2) *GT {
	if pc.inf || q.IsInfinity() {
		return GTOne()
	}
	var f fe12
	ateMillerInto(&f, &pc.xp, &pc.yp, q)
	return &GT{e: *finalExp(&f)}
}

// PairBatch computes AtePair(p, Qᵢ) for a batch of wire-encoded G2 points —
// the v2 counterpart of PrecomputedG1.PairBatch, with the identical
// four-phase structure and acceptance behavior (ok[i] is false exactly when
// G2.Unmarshal would reject raws[i]):
//
//  1. decode + curve check + Galbraith–Scott short-vector subgroup check;
//  2. one ~65-iteration ate Miller loop per element, lines on the fly;
//  3. easy part of the final exponentiation with ONE shared Fp12 inversion
//     (invalid/infinity slots are masked before the prefix chain — the
//     batch-inversion invariant of batch.go);
//  4. decomposed hard part per element.
func (pc *AtePrecomputedG1) PairBatch(raws [][]byte, dst []GT, ok []bool, scratch *PairScratch) {
	n := len(raws)
	if len(dst) != n || len(ok) != n {
		panic("bn254: PairBatch slice length mismatch")
	}
	ateOracleCheck()
	if scratch == nil {
		scratch = new(PairScratch)
	}
	scratch.grow(n)

	// Phase 1: decode + curve + GS subgroup checks.
	var q G2
	for i := range raws {
		st := g2DecodeBatch(&q, raws[i], true)
		scratch.state[i] = st
		if st == batchPoint {
			scratch.qx[i] = q.x
			scratch.qy[i] = q.y
		}
	}

	if pc.inf {
		for i := range raws {
			ok[i] = scratch.state[i] != batchInvalid
			dst[i].e.SetOne()
		}
		return
	}

	// Phase 2: ate Miller loops (lines on the fly, no allocation).
	for i := range raws {
		if scratch.state[i] == batchPoint {
			q.x = scratch.qx[i]
			q.y = scratch.qy[i]
			q.inf = false
			ateMillerInto(&dst[i].e, &pc.xp, &pc.yp, &q)
		}
	}

	// Phase 3: shared-inversion easy part (identical to the Tate batch).
	var acc fe12
	acc.SetOne()
	for i := range raws {
		if scratch.state[i] != batchPoint {
			continue
		}
		scratch.pre[i] = acc
		acc.Mul(&acc, &dst[i].e)
	}
	var inv fe12
	inv.Invert(&acc)
	for i := n - 1; i >= 0; i-- {
		if scratch.state[i] != batchPoint {
			continue
		}
		var fInv, g fe12
		fInv.Mul(&inv, &scratch.pre[i])
		inv.Mul(&inv, &dst[i].e)
		g.Conjugate(&dst[i].e)
		g.Mul(&g, &fInv) // f^(p⁶−1)
		var t fe12
		t.FrobeniusP2(&g)
		dst[i].e.Mul(&t, &g) // ^(p²+1): now cyclotomic
	}

	// Phase 4: decomposed hard part per element.
	for i := range raws {
		switch scratch.state[i] {
		case batchPoint:
			ok[i] = true
			finalExpHardDecomp(&dst[i].e, &dst[i].e)
		case batchInf:
			ok[i] = true
			dst[i].e.SetOne()
		default:
			ok[i] = false
			dst[i].e.SetOne()
		}
	}
}

// AtePrecomputedG2 caches the full ate line ladder of a fixed G2 point —
// the encrypt-side pattern, where the aggregated master public key is
// paired against a fresh G1 element per sealed message. Unlike the decrypt
// side, the fixed argument here IS the laddered one, so precompute recovers
// the line-replay win on top of the short loop.
type AtePrecomputedG2 struct {
	coeffs []ateLineCoeff
	inf    bool
}

// AtePrecomputeG2 runs the ate ladder for q once, for repeated v2 pairing
// against many G1 points.
func AtePrecomputeG2(q *G2) *AtePrecomputedG2 {
	if q.IsInfinity() {
		return &AtePrecomputedG2{inf: true}
	}
	ateOracleCheck()
	return &AtePrecomputedG2{coeffs: g2AteLines(q)}
}

// Pair computes AtePair(p, q) for the precomputed q.
func (pc *AtePrecomputedG2) Pair(p *G1) *GT {
	if pc.inf || p.IsInfinity() {
		return GTOne()
	}
	var f fe12
	ateEvalLinesInto(&f, []ateFixedPair{{pc.coeffs, &p.x, &p.y}})
	return &GT{e: *finalExp(&f)}
}

// AtePairingCheck reports whether ∏ AtePair(ps[i], qs[i]) == 1 for fixed,
// precomputed G2 arguments: one ~65-iteration loop whose Fp12 squaring is
// shared by every pair, then ONE decomposed final exponentiation. Pairs with
// the identity on either side contribute 1 and are skipped.
//
// It is the production pairing-product check (BLS verification). Since
// AtePair = Pair^κ with κ prime to the group order, the product of ate
// values is 1 exactly when the product of Tate values is, so it accepts the
// same tuples as the Tate PairingCheck — which keeps no production caller
// and stays as the differential oracle the tests compare against.
func AtePairingCheck(ps []*G1, qs []*AtePrecomputedG2) bool {
	if len(ps) != len(qs) {
		return false
	}
	pairs := make([]ateFixedPair, 0, len(ps))
	for i, p := range ps {
		if p.IsInfinity() || qs[i].inf {
			continue
		}
		pairs = append(pairs, ateFixedPair{qs[i].coeffs, &p.x, &p.y})
	}
	if len(pairs) == 0 {
		return true
	}
	var f fe12
	ateEvalLinesInto(&f, pairs)
	return finalExpDecomp(&f).IsOne()
}
