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
// — the same shapes as the Tate steps with Fp2 coefficients. g2AteLines
// divides each line by its lc, and ateFixedPoint divides the point by y_P,
// so the replay multiplies by 1 + lb·(x_P/y_P)·w + la·(1/y_P)·w³
// (fe12.mulAteLineMonic).
//
// The ate value differs from the Tate value by a FIXED exponent: both are
// reduced pairings on the same groups, so e_ate = e_tate^κ for a constant κ
// depending only on the curve. The Tate loop survives only in the tests
// (tate_test.go), as the differential oracle: bilinearity of both loops
// against known scalars pins the relation.
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
// to an affine twist point (see g2PsiX/g2PsiY in finalexp.go).
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
			// with the Tate oracle's addStep.
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

// ateMonicLine is one line of a replay table, divided by its lc: the line
// 1 + lb·w + la·w³ before the G1 point's coordinates are folded in (see
// ateFixedPoint). A vertical line is stored as la = lb = 0, the line 1:
// its true value lies in Fp6 and dies in the final exponentiation anyway.
// So an all-zero table, which is what Erase leaves, replays to 1.
type ateMonicLine struct {
	la, lb fe2
}

// ateMaxLines bounds ateNumLines, for stack-allocated tables and scratch.
const ateMaxLines = 96

// ateNumLines is the length of every replay table: one line per doubling,
// one per nonzero NAF digit, two corrections (88 for this curve's λ).
var ateNumLines = func() int {
	n := 2
	for _, d := range ateLoopNAF[:len(ateLoopNAF)-1] {
		n++
		if d != 0 {
			n++
		}
	}
	if n > ateMaxLines {
		panic("bn254: ate line table exceeds ateMaxLines")
	}
	return n
}()

// g2AteLines runs the optimal-ate ladder on a fixed Q once and writes its
// line table, in evaluation order and including the two correction steps,
// into out[:0], which should have room for ateNumLines lines. Every line
// is made monic, divided by its lc with one shared Fp2 inversion: an Fp2
// factor dies in the final exponentiation, so the reduced pairing is
// unchanged, and the replay multiplies by the cheaper 1 + b·w + a·w³ (see
// ateEvalLinesInto).
//
// The inversion is Montgomery's trick with the prefix folded in on the way
// forward: with Pᵢ = lc₀⋯lcᵢ, line i is stored as (la, lb)·Pᵢ₋₁, so that
// multiplying it by Pᵢ⁻¹ on the way back leaves (la, lb)/lcᵢ. Only the lc
// column needs scratch, and it lives on the stack.
func g2AteLines(q *G2, out []ateMonicLine) []ateMonicLine {
	out = out[:0]
	var lcs [ateMaxLines]fe2
	var prefix fe2
	prefix.SetOne()
	var c ateLineCoeff
	push := func() {
		n := len(out)
		if c.vertical {
			out = append(out, ateMonicLine{})
			lcs[n].SetOne()
			return
		}
		var m ateMonicLine
		m.la.Mul(&c.la, &prefix)
		m.lb.Mul(&c.lb, &prefix)
		out = append(out, m)
		lcs[n] = c.lc // nonzero: 2YZ³ and HZ vanish only on vertical cases
		prefix.Mul(&prefix, &c.lc)
	}
	var t g2Jac
	t.fromAffine(q)
	var nq G2
	nq.Neg(q)
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		ateDoubleStep(&c, &t)
		push()
		switch ateLoopNAF[i] {
		case 1:
			ateAddStep(&c, &t, q)
			push()
		case -1:
			ateAddStep(&c, &t, &nq)
			push()
		}
	}
	var q1, nq2 G2
	g2Psi(&q1, q)
	g2Psi(&nq2, &q1)
	nq2.y.Neg(&nq2.y)
	ateAddStep(&c, &t, &q1)
	push()
	ateAddStep(&c, &t, &nq2)
	push()

	var inv fe2 // Pᵢ⁻¹, walking back from the last line
	inv.Invert(&prefix)
	for i := len(out) - 1; i >= 0; i-- {
		out[i].la.Mul(&out[i].la, &inv)
		out[i].lb.Mul(&out[i].lb, &inv)
		inv.Mul(&inv, &lcs[i])
	}
	return out
}

// ateFixedPair is one factor of a fixed-G2 pairing product: the monic line
// table of Q and P's coordinates as the replay uses them, xq = x_P/y_P and
// yinv = 1/y_P (see ateFixedPoint).
type ateFixedPair struct {
	lines    []ateMonicLine
	xq, yinv *fe
}

// ateFixedPoint returns the replay coordinates of a finite G1 point:
// dividing a line lc·y_P + lb·x_P·w + la·w³ with lc = 1 by y_P (an Fp
// factor, dead after the final exponentiation) leaves
// 1 + lb·(x_P/y_P)·w + la·(1/y_P)·w³. y_P ≠ 0 on E(Fp), which has no
// point of order two.
func ateFixedPoint(p *G1) (xq, yinv fe) {
	feInv(&yinv, &p.y)
	feMul(&xq, &p.x, &yinv)
	return
}

// ateEvalLinesInto replays fixed-Q ate ladders against their G1 points,
// leaving the PRODUCT of the unreduced Miller values (up to factors the
// final exponentiation kills) in f. Every table has the same layout (one
// line per doubling, one per nonzero NAF digit, two corrections — the
// shape depends only on λ), so the ladders advance in lockstep and the
// Fp12 squaring of each iteration is paid once for the whole product:
// f² · ∏ℓᵢ is the square-and-multiply step of ∏fᵢ. The first squaring,
// of f = 1, is skipped.
func ateEvalLinesInto(f *fe12, pairs []ateFixedPair) {
	f.SetOne()
	k := 0
	apply := func() {
		for i := range pairs {
			c := &pairs[i].lines[k]
			var b, a fe2
			b.MulFe(&c.lb, pairs[i].xq)
			a.MulFe(&c.la, pairs[i].yinv)
			f.mulAteLineMonic(f, &b, &a)
		}
		k++
	}
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		if k > 0 {
			f.Square(f)
		}
		apply()
		if ateLoopNAF[i] != 0 {
			apply()
		}
	}
	// Correction lines.
	apply()
	apply()
}

// ateReplay sets g to the reduced pairing of a finite p with the point
// whose line table is lines, and returns g.
func ateReplay(g *GT, lines []ateMonicLine, p *G1) *GT {
	xq, yinv := ateFixedPoint(p)
	return ateReplayAt(g, lines, &xq, &yinv)
}

// ateReplayAt is ateReplay at a point given by its replay coordinates.
func ateReplayAt(g *GT, lines []ateMonicLine, xq, yinv *fe) *GT {
	var f fe12
	ateEvalLinesInto(&f, []ateFixedPair{{lines, xq, yinv}})
	finalExpDecomp(&g.e, &f)
	return g
}

// ateOracleOnce runs a one-time bilinearity smoke on first use of any ate
// entry point: the reduced pairing must be nontrivial on the generators and
// satisfy AtePair(2P, 3Q) = AtePair(P, Q)⁶. This startup check catches a
// miscompiled or misderived ladder before any derived key leaves the
// package.
var ateOracleOnce sync.Once

func ateOracleCheck() {
	ateOracleOnce.Do(func() {
		pair := func(p *G1, q *G2) *GT {
			var buf [ateMaxLines]ateMonicLine
			return ateReplay(new(GT), g2AteLines(q, buf[:]), p)
		}
		p, q := G1Generator(), G2Generator()
		var p2 G1
		var q3 G2
		p2.ScalarMult(p, big.NewInt(2))
		q3.ScalarMult(q, big.NewInt(3))
		six := big.NewInt(6)
		gA := pair(p, q)
		if gA.IsOne() {
			panic("bn254: ate pairing is degenerate on the generators")
		}
		if !pair(&p2, &q3).Equal(new(GT).Exp(gA, six)) {
			panic("bn254: ate pairing failed the bilinearity smoke test")
		}
	})
}

// AtePair computes the reduced optimal-ate pairing a(p, q) ∈ GT, the
// package's one bilinear map. Pairing with the identity in either argument
// returns the identity of GT. AtePair is small enough to inline, so a
// caller that keeps the result local keeps it on its stack.
func AtePair(p *G1, q *G2) *GT { return atePair(new(GT), p, q) }

// atePair sets g = AtePair(p, q) and returns g. It builds q's line table
// on the stack and replays it once: the package has one Miller loop, the
// replay.
func atePair(g *GT, p *G1, q *G2) *GT {
	ateOracleCheck()
	if p.IsInfinity() || q.IsInfinity() {
		g.e.SetOne()
		return g
	}
	var buf [ateMaxLines]ateMonicLine
	return ateReplay(g, g2AteLines(q, buf[:]), p)
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
	s := new(big.Int).Mul(new(big.Int).Mul(u, u), big.NewInt(6))
	s.Mod(s, Order)
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
// One 63-bit ladder plus three ψ maps and four Jacobian additions, in place
// of the 254-bit Order ladder of isInSubgroup (the differential oracle for
// this check).
func (p *G2) isInSubgroupGS() bool {
	if p.inf {
		return true
	}
	var uq g2Jac
	g2JacMulU(&uq, p)
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

// AtePrecomputedG2 caches the full ate line ladder of a fixed G2 point:
// the identity key of a mailbox scan, paired against a fresh G1 element
// per ciphertext, and the BLS verification keys. The fixed argument is the
// laddered one, so every pairing against it replays ~90 monic lines
// instead of re-running the twist arithmetic.
type AtePrecomputedG2 struct {
	lines []ateMonicLine
	inf   bool
}

// AtePrecomputeG2 runs the ate ladder for q once, for repeated pairing
// against many G1 points.
func AtePrecomputeG2(q *G2) *AtePrecomputedG2 {
	if q.IsInfinity() {
		return &AtePrecomputedG2{inf: true}
	}
	ateOracleCheck()
	return &AtePrecomputedG2{lines: g2AteLines(q, make([]ateMonicLine, ateNumLines))}
}

// Erase zeroes every line coefficient in place. The table is derived from
// q, and for an identity key q is the key, so key-erasure call sites must
// scrub it like the key itself. An erased table pairs to the identity,
// like the table of infinity.
func (pc *AtePrecomputedG2) Erase() {
	clear(pc.lines)
	pc.inf = true
}

// Pair computes AtePair(p, q) for the precomputed q. Like AtePair it is
// small enough to inline, so a result the caller keeps local stays on its
// stack: a mailbox scan pays no heap for its pairing values.
func (pc *AtePrecomputedG2) Pair(p *G1) *GT { return pc.pair(new(GT), p) }

// pair sets g = Pair(p) and returns g.
func (pc *AtePrecomputedG2) pair(g *GT, p *G1) *GT {
	if pc.inf || p.IsInfinity() {
		g.e.SetOne()
		return g
	}
	return ateReplay(g, pc.lines, p)
}

// PairMarshalled decodes a G1 point encoded by G1.Marshal and pairs it
// with the precomputed q: the result and the errors of Unmarshal then
// Pair, at one field exponentiation less. The replay needs 1/y, and the
// decode's exponentiation yields 1/y along with y, so the inversion Pair
// runs is not paid. Small enough to inline, like Pair.
func (pc *AtePrecomputedG2) PairMarshalled(data []byte) (*GT, error) {
	g := new(GT)
	if err := pc.pairMarshalled(g, data); err != nil {
		return nil, err
	}
	return g, nil
}

func (pc *AtePrecomputedG2) pairMarshalled(g *GT, data []byte) error {
	var p G1
	var yinv fe
	if err := g1Decompress(&p, &yinv, data); err != nil {
		return err
	}
	if pc.inf || p.inf {
		g.e.SetOne()
		return nil
	}
	var xq fe
	feMul(&xq, &p.x, &yinv)
	ateReplayAt(g, pc.lines, &xq, &yinv)
	return nil
}

// AtePairingCheck reports whether ∏ AtePair(ps[i], qs[i]) == 1 for fixed,
// precomputed G2 arguments: one ~65-iteration loop whose Fp12 squaring is
// shared by every pair, then ONE decomposed final exponentiation. Pairs with
// the identity on either side contribute 1 and are skipped.
//
// It is the production pairing-product check (BLS verification). Since
// AtePair = Pair^κ with κ prime to the group order, the product of ate
// values is 1 exactly when the product of Tate values is, so it accepts the
// same tuples as the test-only Tate PairingCheck the tests compare it
// against.
func AtePairingCheck(ps []*G1, qs []*AtePrecomputedG2) bool {
	if len(ps) != len(qs) {
		return false
	}
	pairs := make([]ateFixedPair, 0, len(ps))
	coords := make([]fe, 2*len(ps))
	for i, p := range ps {
		if p.IsInfinity() || qs[i].inf {
			continue
		}
		coords[2*i], coords[2*i+1] = ateFixedPoint(p)
		pairs = append(pairs, ateFixedPair{qs[i].lines, &coords[2*i], &coords[2*i+1]})
	}
	if len(pairs) == 0 {
		return true
	}
	var f fe12
	ateEvalLinesInto(&f, pairs)
	return finalExpDecomp(&f, &f).IsOne()
}
